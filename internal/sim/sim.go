// Package sim is a slot-quantized discrete-event simulator of a YARN-like
// multi-resource cluster, replacing the paper's 20-node testbed and
// trace-driven simulator. It executes deadline-aware workflows and ad-hoc
// jobs under any sched.Scheduler and records per-job and per-workflow
// outcomes plus the cluster load time series.
//
// Execution model (documented in DESIGN.md §7.1): a job carries a work
// volume per resource kind; a grant of x units of kind r in a slot
// consumes x resource-slots of that kind; the job completes at the end of
// the first slot where every kind's volume is covered. Grants are clamped
// to the job's current Request — the demand of its pending tasks — and to
// cluster capacity. Readiness follows the workflow DAG: a job can consume
// only after all its predecessors completed.
//
// The simulator is event-driven toward the scheduler: Assign sees
// Changed=true only when arrivals, completions, readiness flips, or
// estimate revisions occurred, matching the paper's event-driven
// rescheduling (§III).
package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

// Config describes one simulation run.
type Config struct {
	// SlotDur is the slot duration; must be > 0. The paper uses 10s.
	SlotDur time.Duration
	// Horizon is the number of slots to simulate; must be > 0.
	Horizon int64
	// Capacity returns cluster capacity for a slot. Required.
	Capacity func(slot int64) resource.Vector
	// Scheduler makes the per-slot decisions. Required.
	Scheduler sched.Scheduler
	// Workflows are the deadline-aware workflows to run.
	Workflows []*workflow.Workflow
	// AdHoc are the ad-hoc jobs to run.
	AdHoc []workflow.AdHoc
	// ForceCriticalPath selects the critical-path decomposition for all
	// workflows (ablation).
	ForceCriticalPath bool
	// RecordLoad enables per-slot load series capture.
	RecordLoad bool
	// Faults, when non-nil, perturbs the workload's ground truth (runtime
	// jitter, stragglers) for chaos-testing the scheduling pipeline; see
	// FaultInjection.
	Faults *FaultInjection
	// Invariants enables the per-slot InvariantChecker: every slot's
	// grants and accounting are verified against the simulator's safety
	// invariants, and the run fails loudly on the first violation. In
	// machine mode the per-machine invariants (no per-node overcommit, no
	// placement on a dead machine) are checked too.
	Invariants bool
	// Machines, when non-nil, switches the run to machine mode: the
	// cluster is modeled machine-granularly, capacity is the sum of live
	// machines (Capacity must be nil — the machine set defines it), and
	// every grant is placed on concrete machines in task-sized units.
	// Work that fits the aggregate but no single machine is refused —
	// fragmentation the fluid model cannot see — and reported in
	// Result.Machine.
	Machines *MachineMode
}

// MachineMode configures machine-granular simulation.
type MachineMode struct {
	// Initial is the machine set live at slot 0.
	Initial []machine.Spec
	// Events are the timed joins/leaves/failures/capacity-scalings,
	// sorted by slot (machine.SortEvents).
	Events []machine.Event
}

// JobOutcome records one deadline job's result.
type JobOutcome struct {
	WorkflowID string
	JobName    string
	Release    time.Duration
	Deadline   time.Duration
	// Completion is the completion time; Completed is false if the job
	// never finished within the horizon.
	Completion time.Duration
	Completed  bool
}

// Missed reports whether the job missed its (decomposed) deadline.
func (o JobOutcome) Missed() bool {
	return !o.Completed || o.Completion > o.Deadline
}

// Lateness is completion - deadline (negative when early); for jobs that
// never completed it is measured at the horizon end.
func (o JobOutcome) Lateness(horizonEnd time.Duration) time.Duration {
	if !o.Completed {
		return horizonEnd - o.Deadline
	}
	return o.Completion - o.Deadline
}

// WorkflowOutcome records one workflow's result.
type WorkflowOutcome struct {
	ID       string
	Deadline time.Duration
	// Completion is when the last job finished (zero if incomplete).
	Completion time.Duration
	Completed  bool
}

// Missed reports whether the workflow missed its deadline.
func (o WorkflowOutcome) Missed() bool {
	return !o.Completed || o.Completion > o.Deadline
}

// AdHocOutcome records one ad-hoc job's result.
type AdHocOutcome struct {
	ID     string
	Submit time.Duration
	// Completion is the completion time (zero if incomplete).
	Completion time.Duration
	Completed  bool
}

// Turnaround is completion - submission; incomplete jobs are measured at
// the horizon end (a pessimistic lower bound).
func (o AdHocOutcome) Turnaround(horizonEnd time.Duration) time.Duration {
	if !o.Completed {
		return horizonEnd - o.Submit
	}
	return o.Completion - o.Submit
}

// LoadSample is the cluster usage in one slot, split by workload class.
type LoadSample struct {
	Slot     int64
	Deadline resource.Vector
	AdHoc    resource.Vector
	Capacity resource.Vector
}

// Result is the outcome of a run.
type Result struct {
	Jobs       []JobOutcome
	Workflows  []WorkflowOutcome
	AdHoc      []AdHocOutcome
	Load       []LoadSample
	HorizonEnd time.Duration
	// Slots is how many slots were actually simulated (early exit when
	// all work completed).
	Slots int64
	// StalledSlots counts slots where nothing was granted although some
	// ready job had a nonzero request and the cluster had capacity. A
	// work-conserving scheduler (FlowTime and the greedy baselines) keeps
	// this at zero; the reservation-packing baselines may legitimately
	// idle slots they have planned around, so this is a diagnostic — the
	// per-kind invariant is InvariantChecker.CheckWorkConserving.
	StalledSlots int64
	// BestEffortJobs counts deadline jobs admitted best-effort because
	// their workflow had no feasible decomposition (admission control).
	BestEffortJobs int
	// Degradation is the scheduler's final ladder telemetry, when the
	// scheduler reports one (sched.DegradationReporter); nil otherwise.
	Degradation *sched.DegradationStatus
	// InvariantSlots is how many slots the InvariantChecker verified
	// (zero unless Config.Invariants was set).
	InvariantSlots int64
	// Events counts scheduling-relevant events over the run: arrivals,
	// completions, estimate revisions, capacity steps, and machine
	// events — the denominator of the bench probe's events/s.
	Events int64
	// Machine holds machine-mode diagnostics (nil in aggregate mode).
	Machine *MachineResult
}

// MachineResult reports what the placement layer saw in machine mode.
type MachineResult struct {
	// MachineEvents is how many cluster events were applied.
	MachineEvents int64
	// PeakLive/MinLive/FinalLive track the live-machine count (MinLive
	// is measured over simulated slots).
	PeakLive, MinLive, FinalLive int
	// Stats are the cluster's placement counters: placements, units,
	// failures, and the fragmentation-only failure subset.
	Stats machine.Stats
	// UnplacedVolume is the total granted volume the placement layer had
	// to refuse (no single machine could hold it); the scheduler's fluid
	// plan overestimated the packable capacity by exactly this much.
	UnplacedVolume resource.Vector
}

type runJob struct {
	id      string
	kind    sched.JobKind
	wfIdx   int
	nodeIdx int

	arrived  time.Duration
	release  time.Duration
	deadline time.Duration

	estTotal    resource.Vector // estimated volume, revised upward on exhaustion
	origEst     resource.Vector // the original estimate (revision step size)
	actualLeft  resource.Vector // true remaining volume
	consumed    resource.Vector
	parallelCap resource.Vector
	taskDemand  resource.Vector // placement unit in machine mode
	minSlots    int64

	bestEffort bool

	arrivedYet bool
	done       bool
	doneAt     time.Duration
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.SlotDur <= 0 {
		return nil, fmt.Errorf("sim: slot duration %v, want > 0", cfg.SlotDur)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %d, want > 0", cfg.Horizon)
	}
	var cluster *machine.Cluster
	var mres *MachineResult
	var events []machine.Event
	if cfg.Machines != nil {
		if cfg.Capacity != nil {
			return nil, errors.New("sim: machine mode supplies its own capacity; Capacity must be nil")
		}
		// Compile the aggregate capacity profile the schedulers plan
		// against: the sum of live machines after each event.
		profile, err := machine.NewProfile(cfg.Machines.Initial, cfg.Machines.Events)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cfg.Capacity = profile.CapAt
		if cluster, err = machine.NewCluster(cfg.Machines.Initial); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		events = cfg.Machines.Events
		mres = &MachineResult{PeakLive: cluster.Live(), MinLive: cluster.Live()}
	}
	if cfg.Capacity == nil {
		return nil, errors.New("sim: nil capacity function")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler")
	}

	jobs, wfDeadlines, err := buildJobs(cfg)
	if err != nil {
		return nil, err
	}

	view := sched.ClusterView{
		SlotDur: cfg.SlotDur,
		Horizon: cfg.Horizon,
		CapAt:   cfg.Capacity,
	}

	// Index deadline jobs by (workflow, node) for O(preds) readiness checks.
	byNode := make(map[[2]int]*runJob, len(jobs))
	for _, j := range jobs {
		if j.kind == sched.DeadlineJob {
			byNode[[2]int{j.wfIdx, j.nodeIdx}] = j
		}
	}

	res := &Result{HorizonEnd: time.Duration(cfg.Horizon) * cfg.SlotDur}
	changed := true
	pendingArrivals := len(jobs)
	prevCap := cfg.Capacity(0)
	var checker *InvariantChecker
	if cfg.Invariants {
		checker = NewInvariantChecker()
	}
	evIdx := 0

	for slot := int64(0); slot < cfg.Horizon; slot++ {
		now := time.Duration(slot) * cfg.SlotDur

		// Machine events are the ground truth behind capacity steps: apply
		// everything due this slot, then open the slot's occupancy window.
		if cluster != nil {
			for evIdx < len(events) && events[evIdx].Slot <= slot {
				if err := cluster.Apply(events[evIdx]); err != nil {
					return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
				}
				mres.MachineEvents++
				res.Events++
				evIdx++
			}
			cluster.BeginSlot(slot)
			if l := cluster.Live(); l > mres.PeakLive {
				mres.PeakLive = l
			} else if l < mres.MinLive {
				mres.MinLive = l
			}
		}

		// Capacity-profile steps (node loss/recovery, maintenance dips)
		// are scheduling events.
		if c := cfg.Capacity(slot); c != prevCap {
			prevCap = c
			changed = true
			res.Events++
		}

		// Arrivals.
		for _, j := range jobs {
			if !j.arrivedYet && j.arrived <= now {
				j.arrivedYet = true
				pendingArrivals--
				changed = true
				res.Events++
			}
		}

		// Build the scheduler view.
		states := make([]sched.JobState, 0, len(jobs))
		idx := make(map[string]*runJob, len(jobs))
		liveWork := false
		demandNow := false
		for _, j := range jobs {
			if !j.arrivedYet || j.done {
				continue
			}
			liveWork = true
			st := sched.JobState{
				ID:         j.id,
				Kind:       j.kind,
				Arrived:    j.arrived,
				Ready:      jobReady(j, byNode, cfg),
				Request:    request(j),
				BestEffort: j.bestEffort,
			}
			if j.kind == sched.DeadlineJob {
				st.WorkflowID = cfg.Workflows[j.wfIdx].ID
				st.JobName = cfg.Workflows[j.wfIdx].Job(j.nodeIdx).Name
				st.Release = j.release
				st.Deadline = j.deadline
				st.EstRemaining = estRemaining(j)
				st.ParallelCap = j.parallelCap
				st.MinSlots = j.minSlots
			}
			if st.Ready && !st.Request.IsZero() {
				demandNow = true
			}
			states = append(states, st)
			idx[j.id] = j
		}
		if !liveWork && pendingArrivals == 0 {
			res.Slots = slot
			break
		}
		res.Slots = slot + 1

		grants, err := cfg.Scheduler.Assign(sched.AssignContext{
			Now:     slot,
			Changed: changed,
			Jobs:    states,
			Cluster: view,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: slot %d: scheduler %s: %w", slot, cfg.Scheduler.Name(), err)
		}
		changed = false

		// Apply grants: clamp to request and to capacity, deterministically.
		capLeft := cfg.Capacity(slot)
		var dlUsed, ahUsed resource.Vector
		var applied map[string]resource.Vector
		if checker != nil {
			applied = make(map[string]resource.Vector, len(states))
		}
		for _, st := range states {
			g, ok := grants[st.ID]
			if !ok {
				continue
			}
			j := idx[st.ID]
			if !st.Ready {
				continue // defensive: scheduler granted a blocked job
			}
			g = g.Min(st.Request).Min(capLeft)
			if g.AnyNegative() || g.IsZero() {
				continue
			}
			if cluster != nil {
				// The fluid grant must land on concrete machines; what
				// doesn't fit anywhere is refused, not consumed.
				eff := placeGrant(cluster, j.taskDemand, g)
				mres.UnplacedVolume = mres.UnplacedVolume.Add(g.Sub(eff))
				g = eff
				if g.IsZero() {
					continue
				}
			}
			capLeft = capLeft.Sub(g)
			j.consumed = j.consumed.Add(g)
			j.actualLeft = j.actualLeft.SubClamped(g)
			if applied != nil {
				applied[st.ID] = g
			}
			if j.kind == sched.DeadlineJob {
				dlUsed = dlUsed.Add(g)
			} else {
				ahUsed = ahUsed.Add(g)
			}
		}

		if demandNow && dlUsed.IsZero() && ahUsed.IsZero() && !cfg.Capacity(slot).IsZero() {
			res.StalledSlots++
		}

		if cfg.RecordLoad {
			res.Load = append(res.Load, LoadSample{
				Slot: slot, Deadline: dlUsed, AdHoc: ahUsed, Capacity: cfg.Capacity(slot),
			})
		}

		// Completions and estimate revisions at slot end.
		endOfSlot := time.Duration(slot+1) * cfg.SlotDur
		for _, j := range jobs {
			if !j.arrivedYet || j.done {
				continue
			}
			if j.actualLeft.IsZero() {
				j.done = true
				j.doneAt = endOfSlot
				changed = true
				res.Events++
				continue
			}
			if j.kind == sched.DeadlineJob && estRemaining(j).IsZero() {
				// The job outlived its estimate: an observable event — the
				// expected completion time passed. Revise the estimate
				// upward by a chunk (20% of the original, at least one
				// full-parallelism wave) and replan (paper §III:
				// robustness to estimation errors).
				bump := j.origEst
				for i := range bump {
					bump[i] /= 5
				}
				bump = bump.Max(j.parallelCap)
				j.estTotal = j.estTotal.Add(bump)
				changed = true
				res.Events++
			}
		}

		if checker != nil {
			obs := make([]Observation, 0, len(states))
			for _, st := range states {
				j := idx[st.ID]
				obs = append(obs, Observation{
					ID:        j.id,
					Granted:   applied[st.ID],
					Request:   st.Request,
					Ready:     st.Ready,
					Consumed:  j.consumed,
					Remaining: j.actualLeft,
					Done:      j.done,
				})
			}
			if err := checker.CheckSlot(slot, cfg.Capacity(slot), obs); err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			if cluster != nil {
				// The compiled aggregate profile and the live replay must
				// agree — they are two views of the same event stream.
				if pc, lc := cfg.Capacity(slot), cluster.Capacity(); pc != lc {
					return nil, fmt.Errorf("sim: slot %d: capacity profile %v disagrees with live cluster %v", slot, pc, lc)
				}
				if err := checker.CheckMachines(slot, dlUsed.Add(ahUsed), cluster.SlotUsage()); err != nil {
					return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
				}
			}
			res.InvariantSlots = checker.Slots()
		}
	}

	if cluster != nil {
		mres.FinalLive = cluster.Live()
		mres.Stats = cluster.Stats()
		res.Machine = mres
	}
	collectOutcomes(cfg, jobs, wfDeadlines, res)
	for _, j := range jobs {
		if j.bestEffort {
			res.BestEffortJobs++
		}
	}
	if dr, ok := cfg.Scheduler.(sched.DegradationReporter); ok {
		d := dr.Degradation()
		res.Degradation = &d
	}
	return res, nil
}

// buildJobs materializes run state: decomposes every workflow into job
// windows (deadline.Decompose falls back to the critical path itself when
// a deadline is too tight for the antichain sets) and registers ad-hoc
// jobs. Workflows Decompose refuses are admitted best-effort (every job
// gets the whole workflow span as its window) instead of rejected, so one
// impossible deadline cannot abort the run or poison the planners' joint
// LP.
func buildJobs(cfg Config) ([]*runJob, map[int]time.Duration, error) {
	var jobs []*runJob
	wfDeadlines := make(map[int]time.Duration, len(cfg.Workflows))
	seen := make(map[string]bool)
	frng, err := cfg.Faults.newRand()
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}

	for wi, wf := range cfg.Workflows {
		if err := wf.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sim: %w", err)
		}
		if seen[wf.ID] {
			return nil, nil, fmt.Errorf("sim: duplicate workflow ID %q", wf.ID)
		}
		seen[wf.ID] = true
		wfDeadlines[wi] = wf.Deadline

		dec, err := deadline.Decompose(wf, deadline.Options{
			Slot:              cfg.SlotDur,
			ClusterCap:        cfg.Capacity(int64(wf.Submit / cfg.SlotDur)),
			ForceCriticalPath: cfg.ForceCriticalPath,
		})
		bestEffort := err != nil
		for ni := 0; ni < wf.NumJobs(); ni++ {
			job := wf.Job(ni)
			est := job.Volume(cfg.SlotDur)
			actual := workflow.Job{
				Name:         job.Name,
				Tasks:        job.Tasks,
				TaskDuration: job.EffectiveTaskDuration(),
				TaskDemand:   job.TaskDemand,
			}.Volume(cfg.SlotDur)
			release, dl := wf.Submit, wf.Deadline
			if !bestEffort {
				release, dl = dec.Windows[ni].Release, dec.Windows[ni].Deadline
			}
			jobs = append(jobs, &runJob{
				id:          fmt.Sprintf("%s/%s#%d", wf.ID, job.Name, ni),
				kind:        sched.DeadlineJob,
				wfIdx:       wi,
				nodeIdx:     ni,
				arrived:     wf.Submit,
				release:     release,
				deadline:    dl,
				estTotal:    est,
				origEst:     est,
				actualLeft:  cfg.Faults.perturb(frng, actual),
				parallelCap: job.ParallelCap(),
				taskDemand:  job.TaskDemand,
				minSlots:    job.MinRuntimeSlots(cfg.SlotDur, cfg.Capacity(0)),
				bestEffort:  bestEffort,
			})
		}
	}
	for _, ah := range cfg.AdHoc {
		if err := ah.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sim: %w", err)
		}
		id := "adhoc/" + ah.ID
		if seen[id] {
			return nil, nil, fmt.Errorf("sim: duplicate ad-hoc ID %q", ah.ID)
		}
		seen[id] = true
		jobs = append(jobs, &runJob{
			id:          id,
			kind:        sched.AdHocJob,
			wfIdx:       -1,
			arrived:     ah.Submit,
			actualLeft:  cfg.Faults.perturb(frng, ah.Volume(cfg.SlotDur)),
			parallelCap: ah.ParallelCap(),
			taskDemand:  ah.TaskDemand,
		})
	}
	// Deterministic order: arrival, then ID.
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].arrived != jobs[b].arrived {
			return jobs[a].arrived < jobs[b].arrived
		}
		return jobs[a].id < jobs[b].id
	})
	return jobs, wfDeadlines, nil
}

// placeGrant lands a fluid grant on concrete machines in task-sized
// units. The sub-unit remainder is placed as one smaller piece so plan
// allocations below a single task still make progress (the fluid model
// the planners reason in allows fractional tasks; refusing them would
// starve thin allocations). Returns the volume that found a machine.
func placeGrant(c *machine.Cluster, unit, g resource.Vector) resource.Vector {
	if unit.IsZero() || !unit.FitsIn(g) {
		unit = g
	}
	want := unitCount(g, unit)
	placed, _ := c.Place(unit, want)
	eff := unit.Scale(placed)
	if placed == want {
		if rem := g.Sub(eff); !rem.IsZero() {
			if n, _ := c.Place(rem, 1); n == 1 {
				eff = eff.Add(rem)
			}
		}
	}
	return eff
}

// unitCount is how many whole units fit inside g (min over the kinds
// the unit actually demands).
func unitCount(g, unit resource.Vector) int64 {
	n := int64(-1)
	for i := range unit {
		if unit[i] <= 0 {
			continue
		}
		if k := g[i] / unit[i]; n < 0 || k < n {
			n = k
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// jobReady reports whether all DAG predecessors completed.
func jobReady(j *runJob, byNode map[[2]int]*runJob, cfg Config) bool {
	if j.kind != sched.DeadlineJob {
		return true
	}
	for _, p := range cfg.Workflows[j.wfIdx].DAG().Predecessors(j.nodeIdx) {
		if pj := byNode[[2]int{j.wfIdx, p}]; pj != nil && !pj.done {
			return false
		}
	}
	return true
}

// request is the largest grant the job can consume this slot.
func request(j *runJob) resource.Vector {
	return j.parallelCap.Min(j.actualLeft)
}

// estRemaining is the scheduler-visible remaining-work estimate: the
// (possibly revised) estimate minus consumption.
func estRemaining(j *runJob) resource.Vector {
	return j.estTotal.SubClamped(j.consumed)
}

func collectOutcomes(cfg Config, jobs []*runJob, wfDeadlines map[int]time.Duration, res *Result) {
	wfDone := make(map[int]time.Duration)
	wfAll := make(map[int]bool)
	for wi := range cfg.Workflows {
		wfAll[wi] = true
	}
	for _, j := range jobs {
		switch j.kind {
		case sched.DeadlineJob:
			wf := cfg.Workflows[j.wfIdx]
			res.Jobs = append(res.Jobs, JobOutcome{
				WorkflowID: wf.ID,
				JobName:    wf.Job(j.nodeIdx).Name,
				Release:    j.release,
				Deadline:   j.deadline,
				Completion: j.doneAt,
				Completed:  j.done,
			})
			if !j.done {
				wfAll[j.wfIdx] = false
			} else if j.doneAt > wfDone[j.wfIdx] {
				wfDone[j.wfIdx] = j.doneAt
			}
		case sched.AdHocJob:
			res.AdHoc = append(res.AdHoc, AdHocOutcome{
				ID:         j.id,
				Submit:     j.arrived,
				Completion: j.doneAt,
				Completed:  j.done,
			})
		}
	}
	for wi, wf := range cfg.Workflows {
		res.Workflows = append(res.Workflows, WorkflowOutcome{
			ID:         wf.ID,
			Deadline:   wfDeadlines[wi],
			Completion: wfDone[wi],
			Completed:  wfAll[wi],
		})
	}
}
