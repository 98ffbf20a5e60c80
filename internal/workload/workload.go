// Package workload generates the evaluation workloads of the paper:
// PUMA-benchmark-shaped jobs (Ahmad et al., "PUMA: Purdue MapReduce
// Benchmarks Suite"), scientific-workflow DAG shapes (Bharathi et al.,
// "Characterization of Scientific Workflows"), recurring deadline-aware
// workflows with loose deadlines (the paper's trace observation in §II-B:
// a 24-hour business deadline over a ~2-hour run), Poisson ad-hoc job
// streams, estimation-error injection, and synthetic prior-run histories
// for the Morpheus baseline.
//
// All generation is driven by a caller-provided *rand.Rand so runs are
// reproducible from a seed.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

// JobTemplate describes one PUMA-style benchmark job class.
type JobTemplate struct {
	// Name is the benchmark name.
	Name string
	// MinTasks and MaxTasks bound the task count.
	MinTasks, MaxTasks int
	// MinTaskDur and MaxTaskDur bound the per-task duration.
	MinTaskDur, MaxTaskDur time.Duration
	// Demand is the per-task resource demand.
	Demand resource.Vector
}

// PUMATemplates returns the job classes used in the paper's testbed
// experiments (§VII-A): word-processing benchmarks over >= 10 GB inputs —
// InvertedIndex, SequenceCount, WordCount — plus SelfJoin on generated
// data, and the supporting Grep and TeraSort classes. Task counts and
// durations follow typical PUMA configurations on ~128 MB splits.
func PUMATemplates() []JobTemplate {
	return []JobTemplate{
		{Name: "InvertedIndex", MinTasks: 8, MaxTasks: 24, MinTaskDur: 40 * time.Second, MaxTaskDur: 120 * time.Second, Demand: resource.New(1, 2048)},
		{Name: "SequenceCount", MinTasks: 8, MaxTasks: 24, MinTaskDur: 60 * time.Second, MaxTaskDur: 180 * time.Second, Demand: resource.New(1, 3072)},
		{Name: "WordCount", MinTasks: 8, MaxTasks: 32, MinTaskDur: 30 * time.Second, MaxTaskDur: 90 * time.Second, Demand: resource.New(1, 1024)},
		{Name: "SelfJoin", MinTasks: 4, MaxTasks: 16, MinTaskDur: 40 * time.Second, MaxTaskDur: 150 * time.Second, Demand: resource.New(1, 2048)},
		{Name: "Grep", MinTasks: 4, MaxTasks: 16, MinTaskDur: 20 * time.Second, MaxTaskDur: 60 * time.Second, Demand: resource.New(1, 1024)},
		{Name: "TeraSort", MinTasks: 8, MaxTasks: 32, MinTaskDur: 50 * time.Second, MaxTaskDur: 200 * time.Second, Demand: resource.New(2, 4096)},
	}
}

// Shape selects a workflow DAG topology.
type Shape int

// Workflow shapes. Enums start at one.
const (
	// ShapeChain is a linear pipeline.
	ShapeChain Shape = iota + 1
	// ShapeFanOut is the paper's Fig. 3: source -> parallel stage -> sink.
	ShapeFanOut
	// ShapeDiamond is fork-join with two branches of stages.
	ShapeDiamond
	// ShapeMontage mimics the Montage astronomy workflow: wide ingest,
	// aggregation, wide re-projection, final assembly.
	ShapeMontage
	// ShapeEpigenomics mimics the Epigenomics pipeline: several parallel
	// chains merged at the end.
	ShapeEpigenomics
	// ShapeRandom is a random layered DAG.
	ShapeRandom
	// ShapeCyberShake mimics the CyberShake seismology workflow: two wide
	// parallel stages back to back, then a two-step reduction.
	ShapeCyberShake
	// ShapeSipht mimics the SIPHT bioinformatics workflow: many
	// independent two-job chains feeding one final analysis job.
	ShapeSipht
)

// String returns the shape name.
func (s Shape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeFanOut:
		return "fanout"
	case ShapeDiamond:
		return "diamond"
	case ShapeMontage:
		return "montage"
	case ShapeEpigenomics:
		return "epigenomics"
	case ShapeRandom:
		return "random"
	case ShapeCyberShake:
		return "cybershake"
	case ShapeSipht:
		return "sipht"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// WorkflowSpec parameterizes GenerateWorkflow.
type WorkflowSpec struct {
	// ID is the workflow ID.
	ID string
	// Shape selects the topology.
	Shape Shape
	// Jobs is the total number of jobs; each shape arranges them its own
	// way. Must be >= 1 (>= 3 for shapes with distinguished source/sink).
	Jobs int
	// Submit is the workflow submission time.
	Submit time.Duration
	// DeadlineFactor stretches the deadline relative to the workflow's
	// sequential critical-path estimate: deadline = submit + factor x
	// critical-path duration. The paper's traces have very loose deadlines
	// (24h vs 2h run: factor ~12); its testbed uses tighter ones. Must be
	// > 0.
	DeadlineFactor float64
	// Templates are the job classes to draw from; defaults to
	// PUMATemplates().
	Templates []JobTemplate
}

// GenerateWorkflow builds a random workflow from the spec.
func GenerateWorkflow(rng *rand.Rand, spec WorkflowSpec) (*workflow.Workflow, error) {
	if spec.Jobs < 1 {
		return nil, fmt.Errorf("workload: %s: jobs = %d, want >= 1", spec.ID, spec.Jobs)
	}
	if spec.DeadlineFactor <= 0 {
		return nil, fmt.Errorf("workload: %s: deadline factor %g, want > 0", spec.ID, spec.DeadlineFactor)
	}
	templates := spec.Templates
	if len(templates) == 0 {
		templates = PUMATemplates()
	}

	w := workflow.New(spec.ID, spec.Submit, spec.Submit+time.Hour) // placeholder deadline
	for i := 0; i < spec.Jobs; i++ {
		tpl := templates[rng.Intn(len(templates))]
		w.AddJob(sampleJob(rng, tpl, i))
	}
	if err := connect(rng, w, spec.Shape, spec.Jobs); err != nil {
		return nil, err
	}

	// Deadline = factor x estimated critical path (sequential task chains).
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.ID, err)
	}
	weights := make([]float64, w.NumJobs())
	for i := 0; i < w.NumJobs(); i++ {
		weights[i] = w.Job(i).TaskDuration.Seconds()
	}
	_, _, cp, err := w.DAG().LongestPath(weights)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.ID, err)
	}
	w.Deadline = spec.Submit + time.Duration(spec.DeadlineFactor*cp*float64(time.Second))
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.ID, err)
	}
	return w, nil
}

func sampleJob(rng *rand.Rand, tpl JobTemplate, idx int) workflow.Job {
	tasks := tpl.MinTasks
	if tpl.MaxTasks > tpl.MinTasks {
		tasks += rng.Intn(tpl.MaxTasks - tpl.MinTasks + 1)
	}
	dur := tpl.MinTaskDur
	if tpl.MaxTaskDur > tpl.MinTaskDur {
		dur += time.Duration(rng.Int63n(int64(tpl.MaxTaskDur - tpl.MinTaskDur + 1)))
	}
	return workflow.Job{
		Name:         fmt.Sprintf("%s-%d", tpl.Name, idx),
		Tasks:        tasks,
		TaskDuration: dur.Round(time.Second),
		TaskDemand:   tpl.Demand,
	}
}

// connect wires the workflow's dependency edges per shape.
func connect(rng *rand.Rand, w *workflow.Workflow, shape Shape, n int) error {
	switch shape {
	case ShapeChain:
		for i := 1; i < n; i++ {
			w.AddDep(i-1, i)
		}
	case ShapeFanOut:
		if n < 3 {
			return fmt.Errorf("workload: fanout needs >= 3 jobs, got %d", n)
		}
		for i := 1; i < n-1; i++ {
			w.AddDep(0, i)
			w.AddDep(i, n-1)
		}
	case ShapeDiamond:
		if n < 4 {
			return fmt.Errorf("workload: diamond needs >= 4 jobs, got %d", n)
		}
		mid := n - 2
		left := mid / 2
		prev := 0
		for i := 1; i <= left; i++ { // left branch chain
			w.AddDep(prev, i)
			prev = i
		}
		w.AddDep(prev, n-1)
		prev = 0
		for i := left + 1; i <= mid; i++ { // right branch chain
			w.AddDep(prev, i)
			prev = i
		}
		w.AddDep(prev, n-1)
	case ShapeMontage:
		if n < 5 {
			return fmt.Errorf("workload: montage needs >= 5 jobs, got %d", n)
		}
		// Layers: ingest (40%), aggregate (1), reproject (rest), final (1).
		ingest := n * 2 / 5
		if ingest < 1 {
			ingest = 1
		}
		agg := ingest
		reprojStart := agg + 1
		final := n - 1
		for i := 0; i < ingest; i++ {
			w.AddDep(i, agg)
		}
		for i := reprojStart; i < final; i++ {
			w.AddDep(agg, i)
			w.AddDep(i, final)
		}
		if reprojStart >= final { // degenerate small case
			w.AddDep(agg, final)
		}
	case ShapeEpigenomics:
		if n < 3 {
			return fmt.Errorf("workload: epigenomics needs >= 3 jobs, got %d", n)
		}
		// k parallel chains of equal length joined by a sink.
		k := 3
		if n-1 < k {
			k = n - 1
		}
		sink := n - 1
		body := n - 1
		per := body / k
		node := 0
		for c := 0; c < k; c++ {
			length := per
			if c < body%k {
				length++
			}
			prev := -1
			for i := 0; i < length; i++ {
				if prev >= 0 {
					w.AddDep(prev, node)
				}
				prev = node
				node++
			}
			if prev >= 0 {
				w.AddDep(prev, sink)
			}
		}
	case ShapeCyberShake:
		if n < 6 {
			return fmt.Errorf("workload: cybershake needs >= 6 jobs, got %d", n)
		}
		// Stage A (wide) -> stage B (wide, pairwise) -> gather -> final.
		body := n - 2
		aWidth := body / 2
		gather, final := n-2, n-1
		for i := 0; i < aWidth; i++ {
			b := aWidth + i
			if b >= body {
				b = body - 1
			}
			w.AddDep(i, b)
			w.AddDep(b, gather)
		}
		for b := aWidth; b < body; b++ {
			w.AddDep(b, gather)
		}
		w.AddDep(gather, final)
	case ShapeSipht:
		if n < 3 {
			return fmt.Errorf("workload: sipht needs >= 3 jobs, got %d", n)
		}
		// Independent two-job chains feeding one final analysis.
		final := n - 1
		for i := 0; i+1 < final; i += 2 {
			w.AddDep(i, i+1)
			w.AddDep(i+1, final)
		}
		if (final)%2 == 1 { // odd leftover job feeds final directly
			w.AddDep(final-1, final)
		}
	case ShapeRandom:
		// Layered random DAG: 2-5 layers, edges only forward between
		// adjacent layers, each node gets >= 1 parent (except layer 0).
		layers := 2 + rng.Intn(4)
		if layers > n {
			layers = n
		}
		layerOf := make([]int, n)
		for i := range layerOf {
			layerOf[i] = i * layers / n
		}
		for i := 0; i < n; i++ {
			if layerOf[i] == 0 {
				continue
			}
			parents := 0
			for j := 0; j < n; j++ {
				if layerOf[j] == layerOf[i]-1 && rng.Float64() < 0.4 {
					w.AddDep(j, i)
					parents++
				}
			}
			if parents == 0 {
				// Guarantee connectivity: pick one parent from the layer.
				var cands []int
				for j := 0; j < n; j++ {
					if layerOf[j] == layerOf[i]-1 {
						cands = append(cands, j)
					}
				}
				w.AddDep(cands[rng.Intn(len(cands))], i)
			}
		}
	default:
		return fmt.Errorf("workload: unknown shape %v", shape)
	}
	return nil
}

// AdHocSpec parameterizes GenerateAdHoc: a Poisson arrival stream of
// best-effort jobs.
type AdHocSpec struct {
	// Count is the number of jobs.
	Count int
	// MeanInterarrival is the mean of the exponential interarrival time.
	MeanInterarrival time.Duration
	// Start offsets the first arrival.
	Start time.Duration
	// MinTasks/MaxTasks, MinTaskDur/MaxTaskDur, Demand bound the true job
	// sizes (unknown to schedulers).
	MinTasks, MaxTasks     int
	MinTaskDur, MaxTaskDur time.Duration
	Demand                 resource.Vector
}

// GenerateAdHoc builds a Poisson ad-hoc stream.
func GenerateAdHoc(rng *rand.Rand, spec AdHocSpec) ([]workflow.AdHoc, error) {
	if spec.Count < 0 {
		return nil, fmt.Errorf("workload: ad-hoc count %d, want >= 0", spec.Count)
	}
	if spec.Count > 0 && spec.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival %v, want > 0", spec.MeanInterarrival)
	}
	out := make([]workflow.AdHoc, 0, spec.Count)
	at := spec.Start
	for i := 0; i < spec.Count; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(spec.MeanInterarrival))
		at += gap
		tasks := spec.MinTasks
		if spec.MaxTasks > spec.MinTasks {
			tasks += rng.Intn(spec.MaxTasks - spec.MinTasks + 1)
		}
		dur := spec.MinTaskDur
		if spec.MaxTaskDur > spec.MinTaskDur {
			dur += time.Duration(rng.Int63n(int64(spec.MaxTaskDur - spec.MinTaskDur + 1)))
		}
		out = append(out, workflow.AdHoc{
			ID:           fmt.Sprintf("ah-%03d", i),
			Submit:       at.Round(time.Second),
			Tasks:        tasks,
			TaskDuration: dur.Round(time.Second),
			TaskDemand:   spec.Demand,
		})
	}
	return out, nil
}

// InjectEstimationError sets each job's actual task duration to estimate x
// factor, where factor is drawn uniformly from [1+lo, 1+hi]. Negative lo
// with positive hi mixes over- and under-estimation; (0.2, 0.2) makes every
// job run 20% longer than estimated. The paper studies both directions
// (§III-A).
func InjectEstimationError(rng *rand.Rand, w *workflow.Workflow, lo, hi float64) error {
	if hi < lo {
		return fmt.Errorf("workload: error range [%g, %g] inverted", lo, hi)
	}
	for i := 0; i < w.NumJobs(); i++ {
		f := 1 + lo + rng.Float64()*(hi-lo)
		if f < 0.05 {
			f = 0.05
		}
		est := w.Job(i).TaskDuration
		actual := time.Duration(float64(est) * f).Round(time.Second)
		if actual <= 0 {
			actual = time.Second
		}
		if err := w.SetActualTaskDuration(i, actual); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	return nil
}

// SynthesizeHistory fabricates prior-run observations for Morpheus: for
// each workflow, runs sequential-wave estimates through the DAG and
// perturbs each job's span by the given relative jitter.
func SynthesizeHistory(rng *rand.Rand, wfs []*workflow.Workflow, runs int, jitter float64) (sched.History, error) {
	h := make(sched.History, len(wfs))
	for _, w := range wfs {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		order, err := w.DAG().TopoOrder()
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		for r := 0; r < runs; r++ {
			spans := make(map[string]sched.JobSpan, w.NumJobs())
			end := make([]time.Duration, w.NumJobs())
			for _, v := range order {
				start := time.Duration(0)
				for _, p := range w.DAG().Predecessors(v) {
					if end[p] > start {
						start = end[p]
					}
				}
				base := w.Job(v).TaskDuration
				f := 1 + (rng.Float64()*2-1)*jitter
				if f < 0.1 {
					f = 0.1
				}
				dur := time.Duration(float64(base) * f)
				end[v] = start + dur
				spans[w.Job(v).Name] = sched.JobSpan{Start: start, End: end[v]}
			}
			h[w.ID] = append(h[w.ID], sched.PriorRun{Spans: spans})
		}
	}
	return h, nil
}

// RandomDAGWorkflow builds a uniformly random DAG with the exact number of
// nodes and approximately the requested number of edges, used by the
// Fig. 6 decomposition-scalability experiment (10-200 nodes, up to 6000
// edges).
func RandomDAGWorkflow(rng *rand.Rand, id string, nodes, edges int, deadline time.Duration) (*workflow.Workflow, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("workload: nodes = %d, want >= 1", nodes)
	}
	maxEdges := nodes * (nodes - 1) / 2
	if edges > maxEdges {
		edges = maxEdges
	}
	w := workflow.New(id, 0, deadline)
	tpl := PUMATemplates()
	for i := 0; i < nodes; i++ {
		w.AddJob(sampleJob(rng, tpl[rng.Intn(len(tpl))], i))
	}
	// Sample forward edges (a < b keeps it acyclic) without replacement,
	// Floyd-style, bounded by the requested count.
	type pair struct{ a, b int }
	chosen := make(map[pair]bool, edges)
	for len(chosen) < edges {
		a := rng.Intn(nodes - 1)
		b := a + 1 + rng.Intn(nodes-a-1)
		p := pair{a, b}
		if chosen[p] {
			continue
		}
		chosen[p] = true
		w.AddDep(a, b)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return w, nil
}

// Fig4Spec parameterizes the paper's main testbed workload (§VII-A): 5
// workflows x 18 jobs = 90 deadline-aware jobs plus an ad-hoc stream.
type Fig4Spec struct {
	// Seed drives all randomness.
	Seed int64
	// Workflows is the number of workflows (paper: 5).
	Workflows int
	// JobsPerWorkflow is the number of jobs per workflow (paper: 18).
	JobsPerWorkflow int
	// DeadlineFactor stretches deadlines over critical paths.
	DeadlineFactor float64
	// AdHocCount is the number of ad-hoc jobs.
	AdHocCount int
	// AdHocMeanGap is the mean interarrival of ad-hoc jobs.
	AdHocMeanGap time.Duration
}

// DefaultFig4Spec returns the paper's configuration scaled to the
// simulated cluster.
func DefaultFig4Spec() Fig4Spec {
	return Fig4Spec{
		Seed:            20180701,
		Workflows:       5,
		JobsPerWorkflow: 18,
		DeadlineFactor:  4.5,
		AdHocCount:      60,
		AdHocMeanGap:    40 * time.Second,
	}
}

// Fig4Workload materializes the workload for the paper's Fig. 4
// experiment.
func Fig4Workload(spec Fig4Spec) ([]*workflow.Workflow, []workflow.AdHoc, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	shapes := []Shape{ShapeFanOut, ShapeDiamond, ShapeMontage, ShapeEpigenomics, ShapeRandom}
	wfs := make([]*workflow.Workflow, 0, spec.Workflows)
	for i := 0; i < spec.Workflows; i++ {
		submit := time.Duration(i) * 2 * time.Minute
		w, err := GenerateWorkflow(rng, WorkflowSpec{
			ID:             fmt.Sprintf("wf-%d", i),
			Shape:          shapes[i%len(shapes)],
			Jobs:           spec.JobsPerWorkflow,
			Submit:         submit,
			DeadlineFactor: spec.DeadlineFactor,
		})
		if err != nil {
			return nil, nil, err
		}
		wfs = append(wfs, w)
	}
	// Ad-hoc jobs are wide and short — interactive scans and joins that
	// want a large slice of the cluster at once (the workloads the paper's
	// introduction motivates). Width is what separates the schedulers: a
	// fair share or an EDF leftover throttles a wide job hard, while
	// FlowTime's flattened deadline skyline leaves it most of the cluster.
	adhoc, err := GenerateAdHoc(rng, AdHocSpec{
		Count:            spec.AdHocCount,
		MeanInterarrival: spec.AdHocMeanGap,
		MinTasks:         8,
		MaxTasks:         32,
		MinTaskDur:       20 * time.Second,
		MaxTaskDur:       90 * time.Second,
		Demand:           resource.New(1, 2048),
	})
	if err != nil {
		return nil, nil, err
	}
	return wfs, adhoc, nil
}
