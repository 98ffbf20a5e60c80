// Package experiments wires workloads, schedulers, the simulator, and
// metrics into the paper's evaluation: one function per figure. The
// ftbench command and the repository's benchmark suite both call into this
// package, and the integration tests assert the paper's qualitative
// findings on its outputs.
//
// The per-experiment index — figure id, workload, parameters, and
// implementing modules — lives in DESIGN.md §4; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/deadline"
	"flowtime/internal/machine"
	"flowtime/internal/metrics"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// SlotDur is the scheduling slot used throughout the evaluation (the
// paper's §VI setting: 10-second slots).
const SlotDur = 10 * time.Second

// Fig4Cluster is the simulated cluster for the testbed-scale experiments
// (Figs. 4 and 5): 128 cores / 256 GiB, sized so the 90-job deadline
// workload keeps the cluster ~35-40% busy on average — the paper's regime,
// where deadline misses are marginal for the baselines (5-13 of 90) and
// contention bites through queueing rather than outright overload.
var Fig4Cluster = resource.New(128, 256*1024)

// Fig4Algorithms is the lineup of the paper's Fig. 4.
func Fig4Algorithms() []string {
	return []string{"FlowTime", "CORA", "EDF", "Fair", "FIFO"}
}

// AllAlgorithms additionally includes Morpheus (listed among the paper's
// baselines in §VII-A).
func AllAlgorithms() []string {
	return append(Fig4Algorithms(), "Morpheus")
}

// Fig4Options tunes RunFig4.
type Fig4Options struct {
	// Spec is the workload; zero value means workload.DefaultFig4Spec().
	Spec workload.Fig4Spec
	// Algorithms defaults to Fig4Algorithms().
	Algorithms []string
	// EstimationError, when non-zero, scales every job's actual duration
	// range to [1+lo, 1+hi] (used by Fig. 5 and the robustness extension).
	ErrLo, ErrHi float64
	// FlowTimeSlack overrides FlowTime's deadline slack; nil means the
	// default 60s.
	FlowTimeSlack *time.Duration
	// ForceCriticalPath switches all decomposition to the critical-path
	// fallback (decomposition ablation).
	ForceCriticalPath bool
	// MaxLexRounds overrides FlowTime's lexicographic round cap
	// (ablation: 1 approximates a plain min-max).
	MaxLexRounds int
	// Cluster overrides the simulated cluster capacity (zero value means
	// Fig4Cluster). Scaled-down integration tests use a smaller cluster.
	Cluster resource.Vector
	// Horizon overrides the simulated horizon in slots (0 means 4000).
	Horizon int64
}

// RunFig4 executes the paper's main experiment (Figs. 4a-c): 5 workflows x
// 18 deadline jobs plus an ad-hoc stream, once per algorithm, on identical
// workloads. Returns one summary per algorithm, in input order.
func RunFig4(opts Fig4Options) ([]metrics.Summary, error) {
	spec := opts.Spec
	if spec.Workflows == 0 {
		spec = workload.DefaultFig4Spec()
	}
	algs := opts.Algorithms
	if len(algs) == 0 {
		algs = Fig4Algorithms()
	}

	summaries := make([]metrics.Summary, 0, len(algs))
	for _, alg := range algs {
		// Regenerate the workload per algorithm from the same seed so each
		// scheduler sees an identical, isolated copy.
		wfs, adhoc, err := workload.Fig4Workload(spec)
		if err != nil {
			return nil, err
		}
		if opts.ErrLo != 0 || opts.ErrHi != 0 {
			errRng := rand.New(rand.NewSource(spec.Seed + 1))
			for _, w := range wfs {
				if err := workload.InjectEstimationError(errRng, w, opts.ErrLo, opts.ErrHi); err != nil {
					return nil, err
				}
			}
		}
		var history sched.History
		if alg == "Morpheus" {
			histRng := rand.New(rand.NewSource(spec.Seed + 2))
			history, err = workload.SynthesizeHistory(histRng, wfs, 10, 0.1)
			if err != nil {
				return nil, err
			}
		}
		ftCfg := core.DefaultConfig()
		if opts.FlowTimeSlack != nil {
			ftCfg.Slack = *opts.FlowTimeSlack
		}
		if opts.MaxLexRounds != 0 {
			ftCfg.MaxLexRounds = opts.MaxLexRounds
		}
		s, err := core.NewScheduler(alg, history, ftCfg)
		if err != nil {
			return nil, err
		}
		cluster := opts.Cluster
		if cluster.IsZero() {
			cluster = Fig4Cluster
		}
		horizon := opts.Horizon
		if horizon <= 0 {
			horizon = 4000
		}
		res, err := sim.Run(sim.Config{
			SlotDur:           SlotDur,
			Horizon:           horizon,
			Capacity:          func(int64) resource.Vector { return cluster },
			Scheduler:         s,
			Workflows:         wfs,
			AdHoc:             adhoc,
			ForceCriticalPath: opts.ForceCriticalPath,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", alg, err)
		}
		name := alg
		if alg == "FlowTime" && opts.FlowTimeSlack != nil && *opts.FlowTimeSlack == 0 {
			name = "FlowTime_no_ds"
		}
		summaries = append(summaries, metrics.Summarize(name, res))
	}
	return summaries, nil
}

// Fig5Result pairs the with/without-slack runs of the deadline-slack
// ablation (paper Fig. 5).
type Fig5Result struct {
	WithSlack metrics.Summary
	NoSlack   metrics.Summary
}

// RunFig5 executes the deadline-slack ablation: FlowTime with the default
// 60s slack versus no slack, under mild underestimation error (the paper's
// motivation for slack: resources granted at the very last minute turn
// estimation error into misses).
func RunFig5() (*Fig5Result, error) {
	noSlack := time.Duration(0)
	run := func(slack *time.Duration) (metrics.Summary, error) {
		out, err := RunFig4(Fig4Options{
			Algorithms: []string{"FlowTime"},
			// Realistic recurring-run noise: durations drift between -5%
			// and +15% of the estimate (input data grows, code changes —
			// paper §III-A).
			ErrLo:         -0.05,
			ErrHi:         0.14,
			FlowTimeSlack: slack,
		})
		if err != nil {
			return metrics.Summary{}, err
		}
		return out[0], nil
	}
	with, err := run(nil)
	if err != nil {
		return nil, err
	}
	without, err := run(&noSlack)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{WithSlack: with, NoSlack: without}, nil
}

// Fig6Point is one sample of the decomposition-scalability surface
// (paper Fig. 6): mean decomposition runtime for a DAG size.
type Fig6Point struct {
	Nodes   int
	Edges   int
	Runtime time.Duration
}

// RunFig6 measures the deadline-decomposition runtime across DAG sizes,
// mirroring the paper's methodology: for each node count (10-200) and each
// of several edge densities, average over `reps` runs after `warmup`
// warm-up runs. The paper uses 1000 runs after 100 warmups; callers scale
// reps down for quick passes.
func RunFig6(nodeCounts []int, densities []float64, warmup, reps int) ([]Fig6Point, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{10, 50, 100, 150, 200}
	}
	if len(densities) == 0 {
		densities = []float64{0.05, 0.1, 0.2, 0.3}
	}
	rng := rand.New(rand.NewSource(6))
	clusterCap := resource.New(500, 1024*1024)
	var out []Fig6Point
	for _, n := range nodeCounts {
		for _, d := range densities {
			edges := int(d * float64(n*(n-1)) / 2)
			w, err := workload.RandomDAGWorkflow(rng, fmt.Sprintf("f6-%d-%d", n, edges), n, edges, 24*time.Hour)
			if err != nil {
				return nil, err
			}
			opts := deadline.Options{Slot: SlotDur, ClusterCap: clusterCap}
			for i := 0; i < warmup; i++ {
				if _, err := deadline.Decompose(w, opts); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := deadline.Decompose(w, opts); err != nil {
					return nil, err
				}
			}
			out = append(out, Fig6Point{
				Nodes:   n,
				Edges:   w.DAG().NumEdges(),
				Runtime: time.Since(start) / time.Duration(reps),
			})
		}
	}
	return out, nil
}

// Fig7Point is one sample of the scheduler latency curve (paper
// Fig. 7).
type Fig7Point struct {
	Jobs    int
	Latency time.Duration
	// Rounds is the number of skyline levels the planner solved.
	Rounds int
}

// RunFig7 measures FlowTime's scheduling (replan) latency versus the number of
// live deadline jobs, in the paper's setting: 500 cores and 1 TB of
// memory, 100 slots of 10 seconds. Jobs receive random windows within the
// horizon and demands sized to keep the instance feasible.
func RunFig7(jobCounts []int) ([]Fig7Point, error) {
	if len(jobCounts) == 0 {
		jobCounts = []int{10, 25, 50, 100, 150, 200}
	}
	capacity := resource.New(500, 1024*1024)
	const horizon = 100
	var out []Fig7Point
	for _, n := range jobCounts {
		rng := rand.New(rand.NewSource(int64(700 + n)))
		jobs := make([]sched.JobState, 0, n)
		for i := 0; i < n; i++ {
			rel := rng.Int63n(horizon - 10)
			win := 10 + rng.Int63n(horizon-rel-9)
			tasks := int64(1 + rng.Intn(16))
			perSlot := resource.New(tasks, tasks*2048)
			durSlots := 1 + rng.Int63n(win/2+1)
			jobs = append(jobs, sched.JobState{
				ID:           fmt.Sprintf("j%03d", i),
				Kind:         sched.DeadlineJob,
				Arrived:      0,
				Release:      time.Duration(rel) * SlotDur,
				Deadline:     time.Duration(rel+win) * SlotDur,
				EstRemaining: perSlot.Scale(durSlots),
				ParallelCap:  perSlot,
				MinSlots:     durSlots,
				Request:      perSlot,
				Ready:        true,
			})
		}
		f := core.New(core.DefaultConfig())
		start := time.Now()
		_, err := f.Assign(sched.AssignContext{
			Now: 0, Changed: true, Jobs: jobs,
			Cluster: sched.ClusterView{
				SlotDur: SlotDur,
				Horizon: horizon,
				CapAt:   func(int64) resource.Vector { return capacity },
			},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig7 n=%d: %w", n, err)
		}
		out = append(out, Fig7Point{Jobs: n, Latency: time.Since(start), Rounds: f.Stats().LPRounds})
	}
	return out, nil
}

// ExtAPoint is one sample of the estimation-error robustness sweep
// (extension A: the §III-A design goal, quantified).
type ExtAPoint struct {
	// ErrCenter is the center of the +/-10% error band injected.
	ErrCenter float64
	// MissedWithSlack and MissedNoSlack are FlowTime's job-miss counts.
	MissedWithSlack int
	MissedNoSlack   int
}

// RunExtA sweeps estimation error from optimistic to pessimistic and
// reports FlowTime's miss counts with and without deadline slack.
func RunExtA(centers []float64) ([]ExtAPoint, error) {
	if len(centers) == 0 {
		centers = []float64{-0.4, -0.2, 0, 0.2, 0.4}
	}
	noSlack := time.Duration(0)
	var out []ExtAPoint
	for _, c := range centers {
		with, err := RunFig4(Fig4Options{
			Algorithms: []string{"FlowTime"},
			ErrLo:      c - 0.1, ErrHi: c + 0.1,
		})
		if err != nil {
			return nil, err
		}
		without, err := RunFig4(Fig4Options{
			Algorithms: []string{"FlowTime"},
			ErrLo:      c - 0.1, ErrHi: c + 0.1,
			FlowTimeSlack: &noSlack,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ExtAPoint{
			ErrCenter:       c,
			MissedWithSlack: with[0].JobsMissed,
			MissedNoSlack:   without[0].JobsMissed,
		})
	}
	return out, nil
}

// ExtBPoint compares decomposition strategies on wide fan-out workflows
// (extension B: the paper's Fig. 3 argument, measured).
type ExtBPoint struct {
	Width           int
	MissedResource  int
	MissedCritical  int
	JobsPerWorkflow int
}

// RunExtB runs FlowTime on fan-out workflows of increasing width under
// both decomposition strategies. Resource-demand decomposition widens the
// parallel stage's window as the stage grows; critical-path decomposition
// gives it a fixed 1/3 share and starts missing when the stage cannot fit.
func RunExtB(widths []int) ([]ExtBPoint, error) {
	if len(widths) == 0 {
		widths = []int{4, 8, 16, 24}
	}
	// Uniform jobs make the geometry exact: every job is 8 tasks x 60 s x
	// 1 core (480 core-seconds), stage minimum runtime 60 s, cluster 32
	// cores. The middle stage carries 480*width core-seconds; a window of
	// W seconds provides 32*W. Critical-path decomposition always gives
	// the stage deadline/3 (three equal-runtime hops), so it needs
	// deadline > 45*width to fit; resource-demand gives it roughly
	// width/(width+2) of the deadline, needing only ~15*(width+2). A
	// deadline of 30*width seconds therefore sits squarely between the
	// two: RD fits, CP starves — the paper's Fig. 3 argument, made exact.
	capacity := resource.New(32, 64*1024)
	var out []ExtBPoint
	for _, width := range widths {
		run := func(force bool) (int, error) {
			deadlineSec := 35 * width
			if deadlineSec < 280 {
				deadlineSec = 280 // floor so narrow fan-outs fit under both strategies
			}
			w := workflow.New(fmt.Sprintf("fan-%d", width), 0,
				time.Duration(deadlineSec)*time.Second)
			job := workflow.Job{
				Tasks:        8,
				TaskDuration: 60 * time.Second,
				TaskDemand:   resource.New(1, 2048),
			}
			job.Name = "source"
			src := w.AddJob(job)
			var mids []int
			for i := 0; i < width; i++ {
				job.Name = fmt.Sprintf("stage-%d", i)
				mids = append(mids, w.AddJob(job))
			}
			job.Name = "sink"
			sink := w.AddJob(job)
			for _, m := range mids {
				w.AddDep(src, m)
				w.AddDep(m, sink)
			}
			if err := w.Validate(); err != nil {
				return 0, err
			}
			res, err := sim.Run(sim.Config{
				SlotDur:           SlotDur,
				Horizon:           4000,
				Capacity:          func(int64) resource.Vector { return capacity },
				Scheduler:         core.New(core.DefaultConfig()),
				Workflows:         []*workflow.Workflow{w},
				ForceCriticalPath: force,
			})
			if err != nil {
				return 0, err
			}
			return metrics.Summarize("FlowTime", res).JobsMissed, nil
		}
		rd, err := run(false)
		if err != nil {
			return nil, err
		}
		cp, err := run(true)
		if err != nil {
			return nil, err
		}
		out = append(out, ExtBPoint{Width: width, MissedResource: rd, MissedCritical: cp, JobsPerWorkflow: width + 2})
	}
	return out, nil
}

// RunExtC replays a synthetic production-style trace — recurring
// workflows with very loose deadlines (the paper's §II-B observation: a
// 24-hour deadline over a ~2-hour run) plus a steady ad-hoc stream —
// through every algorithm. It exercises the trace round-trip so the
// experiment measures exactly what ftgen/ftsim consume.
func RunExtC(algorithms []string) ([]metrics.Summary, error) {
	if len(algorithms) == 0 {
		algorithms = Fig4Algorithms()
	}
	build := func() ([]*workflow.Workflow, []workflow.AdHoc, error) {
		rng := rand.New(rand.NewSource(77))
		var wfs []*workflow.Workflow
		shapes := []workload.Shape{workload.ShapeMontage, workload.ShapeEpigenomics, workload.ShapeDiamond, workload.ShapeFanOut}
		for i := 0; i < 4; i++ {
			w, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
				ID:             fmt.Sprintf("rec-%d", i),
				Shape:          shapes[i%len(shapes)],
				Jobs:           12,
				Submit:         time.Duration(i) * 5 * time.Minute,
				DeadlineFactor: 8, // very loose, like the trace
			})
			if err != nil {
				return nil, nil, err
			}
			wfs = append(wfs, w)
		}
		adhoc, err := workload.GenerateAdHoc(rng, workload.AdHocSpec{
			Count:            60,
			MeanInterarrival: 40 * time.Second,
			MinTasks:         8, MaxTasks: 24,
			MinTaskDur: 20 * time.Second, MaxTaskDur: 2 * time.Minute,
			Demand: resource.New(1, 1024),
		})
		if err != nil {
			return nil, nil, err
		}
		return wfs, adhoc, nil
	}

	var out []metrics.Summary
	for _, alg := range algorithms {
		wfs, adhoc, err := build()
		if err != nil {
			return nil, err
		}
		// Round-trip through the trace format, as ftsim would.
		tr, err := trace.FromWorkload(wfs, adhoc)
		if err != nil {
			return nil, err
		}
		wfs, adhoc, err = tr.ToWorkload()
		if err != nil {
			return nil, err
		}
		var history sched.History
		if alg == "Morpheus" {
			history, err = workload.SynthesizeHistory(rand.New(rand.NewSource(78)), wfs, 10, 0.1)
			if err != nil {
				return nil, err
			}
		}
		s, err := core.NewScheduler(alg, history, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Config{
			SlotDur:   SlotDur,
			Horizon:   8000,
			Capacity:  func(int64) resource.Vector { return Fig4Cluster },
			Scheduler: s,
			Workflows: wfs,
			AdHoc:     adhoc,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ext-c %s: %w", alg, err)
		}
		out = append(out, metrics.Summarize(alg, res))
	}
	return out, nil
}

// ExtDResult compares the full lexicographic objective against a single
// min-max round (extension D / DESIGN.md ablation 3: does flattening the
// whole skyline matter, or only the peak?).
type ExtDResult struct {
	Lexicographic metrics.Summary
	SingleMinMax  metrics.Summary
}

// RunExtD runs FlowTime with full lexicographic refinement and with a
// single min-theta round on the Fig. 4 workload.
func RunExtD() (*ExtDResult, error) {
	lex, err := RunFig4(Fig4Options{Algorithms: []string{"FlowTime"}})
	if err != nil {
		return nil, err
	}
	single, err := RunFig4(Fig4Options{Algorithms: []string{"FlowTime"}, MaxLexRounds: 1})
	if err != nil {
		return nil, err
	}
	one := single[0]
	one.Algorithm = "FlowTime_minmax1"
	return &ExtDResult{Lexicographic: lex[0], SingleMinMax: one}, nil
}

// RunFig1 reproduces the paper's motivating example (Fig. 1): workflow W1
// (two chained jobs, each needing the whole 10-core cluster for 500s,
// deadline 2000s) plus ad-hoc jobs A1 (t=0) and A2 (t=1000s), under EDF
// and FlowTime. In the paper the average ad-hoc turnaround falls from 150
// to 100 time units; here the same 3:2 improvement appears in seconds.
func RunFig1() ([]metrics.Summary, error) {
	build := func() (*workflow.Workflow, []workflow.AdHoc) {
		w := workflow.New("W1", 0, 2000*time.Second)
		j1 := w.AddJob(workflow.Job{Name: "job1", Tasks: 10, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)})
		j2 := w.AddJob(workflow.Job{Name: "job2", Tasks: 10, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)})
		w.AddDep(j1, j2)
		adhoc := []workflow.AdHoc{
			{ID: "A1", Submit: 0, Tasks: 5, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)},
			{ID: "A2", Submit: 1000 * time.Second, Tasks: 5, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)},
		}
		return w, adhoc
	}
	var out []metrics.Summary
	for _, alg := range []string{"EDF", "FlowTime"} {
		s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		w, adhoc := build()
		res, err := sim.Run(sim.Config{
			SlotDur:   SlotDur,
			Horizon:   600,
			Capacity:  func(int64) resource.Vector { return resource.New(10, 1000) },
			Scheduler: s,
			Workflows: []*workflow.Workflow{w},
			AdHoc:     adhoc,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig1 %s: %w", alg, err)
		}
		out = append(out, metrics.Summarize(alg, res))
	}
	return out, nil
}

// ExtEPoint compares schedulers through a mid-run capacity outage
// (extension E: failure injection, DESIGN.md §8).
type ExtEPoint struct {
	Algorithm string
	// Missed is the number of deadline jobs missed.
	Missed int
	// AvgTurnaround is the mean ad-hoc turnaround.
	AvgTurnaround time.Duration
}

// RunExtE replays the Fig. 4 workload with half the cluster lost between
// t=20 min and t=40 min (slots 120-240). FlowTime's capacity-aware
// staleness detection re-flattens the skyline around the outage.
func RunExtE(algorithms []string) ([]ExtEPoint, error) {
	if len(algorithms) == 0 {
		algorithms = []string{"FlowTime", "EDF", "Fair"}
	}
	profile, err := machine.NewProfile(
		[]machine.Spec{{ID: "cluster", Capacity: Fig4Cluster}},
		[]machine.Event{
			{Slot: 120, Kind: machine.SetScale, ScaleNum: 1, ScaleDen: 2},
			{Slot: 240, Kind: machine.SetScale, ScaleNum: 1, ScaleDen: 1},
		})
	if err != nil {
		return nil, err
	}
	spec := workload.DefaultFig4Spec()
	var out []ExtEPoint
	for _, alg := range algorithms {
		wfs, adhoc, err := workload.Fig4Workload(spec)
		if err != nil {
			return nil, err
		}
		s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Config{
			SlotDur:   SlotDur,
			Horizon:   4000,
			Capacity:  profile.CapAt,
			Scheduler: s,
			Workflows: wfs,
			AdHoc:     adhoc,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ext-e %s: %w", alg, err)
		}
		sum := metrics.Summarize(alg, res)
		out = append(out, ExtEPoint{
			Algorithm:     alg,
			Missed:        sum.JobsMissed,
			AvgTurnaround: sum.AvgTurnaround,
		})
	}
	return out, nil
}
