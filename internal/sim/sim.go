// Package sim is a slot-quantized discrete-event simulator of a YARN-like
// multi-resource cluster, replacing the paper's 20-node testbed and
// trace-driven simulator. It executes deadline-aware workflows and ad-hoc
// jobs under any sched.Scheduler and records per-job and per-workflow
// outcomes plus the cluster load time series.
//
// Execution model (documented in DESIGN.md §7.1): the jobs live in the
// resource manager's state machine, internal/rmstate, which admits them
// (a workflow by rmstate.DecideWorkflow, the RM's own decision), decides
// their readiness (the workflow DAG) and requests, and completes
// each one once its confirmed grants cover its true volume. The simulator
// is the RM's agents, idealised: every grant is clamped to the job's
// request and to cluster capacity, runs, and is confirmed in the slot it
// is made, so a job completes at the end of the first slot that covers its
// volume. No confirm lags, no grant is handed off or offered, no lease
// expires, no ad-hoc gate refuses work, and slots are whole seconds. What
// the simulator keeps of a job is what no RM knows: the estimate the
// scheduler sees, the exact submission, and the task size machine mode
// places.
//
// The simulator is event-driven toward the scheduler: Assign sees
// Changed=true only when arrivals, completions, readiness flips, or
// estimate revisions occurred, matching the paper's event-driven
// rescheduling (§III).
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// Config describes one simulation run.
type Config struct {
	// SlotDur is the slot duration; must be a whole number of seconds > 0.
	// The paper uses 10s.
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

// job is what the simulator knows of a job that the RM's state does not:
// its exact submission (rmstate anchors an arrival to its slot), a
// deadline job's estimate and the task size machine mode places.
type job struct {
	*rmstate.Job // nil until its admission record is applied
	submit       time.Duration
	est, origEst resource.Vector // est is revised upward when the job outlives it
	taskDemand   resource.Vector
}

// admission is one workflow's or ad-hoc job's admission record, applied at
// slot, the first at or after its submission, and the jobs it admits.
type admission struct {
	slot int64
	rec  *rmstate.Record
	jobs []*job // a workflow's by node index
}

// simNode is the one node the simulator's grants are leased to.
const simNode = "sim"

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.SlotDur <= 0 {
		return nil, fmt.Errorf("sim: slot duration %v, want > 0", cfg.SlotDur)
	}
	if cfg.SlotDur%time.Second != 0 {
		// The state's volumes come from whole-second task durations.
		return nil, fmt.Errorf("sim: slot duration %v, want a whole number of seconds", cfg.SlotDur)
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

	admits, err := admissions(cfg)
	if err != nil {
		return nil, err
	}
	due := slices.Clone(admits)
	slices.SortStableFunc(due, func(a, b *admission) int { return cmp.Compare(a.slot, b.slot) })
	// Every lease is confirmed in the slot it is granted, so none expires.
	state := rmstate.New(cfg.SlotDur, math.MaxInt64/2)
	live := make(map[string]*job)
	nodes := []*rmstate.Node{{ID: simNode}}

	view := sched.ClusterView{
		SlotDur: cfg.SlotDur,
		Horizon: cfg.Horizon,
		CapAt:   cfg.Capacity,
	}

	res := &Result{HorizonEnd: time.Duration(cfg.Horizon) * cfg.SlotDur}
	changed := true
	prevCap := cfg.Capacity(0)
	var checker *InvariantChecker
	if cfg.Invariants {
		checker = NewInvariantChecker()
	}
	evIdx := 0

	for slot := int64(0); slot < cfg.Horizon; slot++ {
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
		for len(due) > 0 && due[0].slot <= slot {
			if err := admit(state, due[0], live); err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			res.Events += int64(len(due[0].jobs))
			changed = true
			due = due[1:]
		}
		if len(state.Jobs()) == 0 && len(due) == 0 {
			res.Slots = slot
			break
		}
		res.Slots = slot + 1

		// The scheduler sees the state's live jobs, with their exact
		// submissions and the estimates instead of the true volumes, in
		// submission order. No grant waits on a confirm, so none is an offer.
		tick, states := state.DecideTick(nil, true)
		demandNow := false
		for i := range states {
			st, j := &states[i], live[states[i].ID]
			st.Arrived = j.submit
			st.ReadyOnConfirm = false
			if st.Kind == sched.DeadlineJob {
				st.EstRemaining = j.est.SubClamped(j.Delivered)
			}
			if st.Ready && !st.Request.IsZero() {
				demandNow = true
			}
		}
		slices.SortFunc(states, func(a, b sched.JobState) int {
			return cmp.Or(cmp.Compare(a.Arrived, b.Arrived), cmp.Compare(a.ID, b.ID))
		})

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

		// Clamp grants to request and to capacity, deterministically.
		capLeft := cfg.Capacity(slot)
		var dlUsed, ahUsed resource.Vector
		applied := make(map[string]resource.Vector, len(grants))
		for _, st := range states {
			g, ok := grants[st.ID]
			if !ok || !st.Ready {
				continue // a grant to a blocked job is dropped
			}
			g = g.Min(st.Request).Min(capLeft)
			if g.AnyNegative() || g.IsZero() {
				continue
			}
			if cluster != nil {
				// The fluid grant must land on concrete machines; what
				// doesn't fit anywhere is refused, not consumed.
				eff := placeGrant(cluster, live[st.ID].taskDemand, g)
				mres.UnplacedVolume = mres.UnplacedVolume.Add(g.Sub(eff))
				g = eff
				if g.IsZero() {
					continue
				}
			}
			capLeft = capLeft.Sub(g)
			applied[st.ID] = g
			if st.Kind == sched.DeadlineJob {
				dlUsed = dlUsed.Add(g)
			} else {
				ahUsed = ahUsed.Add(g)
			}
		}
		// The grants run: one tick leases them to the simulator's node, and
		// one confirm delivers them at the slot's end.
		nodes[0].Capacity, nodes[0].Placed = cfg.Capacity(slot), resource.Vector{}
		state.PlaceTick(tick, states, applied, nodes)
		qids := make([]string, len(tick.Grants))
		for i, g := range tick.Grants {
			qids[i] = g.QID
		}
		if err := state.Apply(&rmstate.Record{Tick: tick}); err != nil {
			return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
		}
		confirm, _ := state.DecideConfirm(simNode, qids)
		if err := state.Apply(&rmstate.Record{Confirm: confirm}); err != nil {
			return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
		}

		if demandNow && dlUsed.IsZero() && ahUsed.IsZero() && !cfg.Capacity(slot).IsZero() {
			res.StalledSlots++
		}

		if cfg.RecordLoad {
			res.Load = append(res.Load, LoadSample{
				Slot: slot, Deadline: dlUsed, AdHoc: ahUsed, Capacity: cfg.Capacity(slot),
			})
		}

		if checker != nil {
			obs := make([]Observation, 0, len(states))
			for _, st := range states {
				j := live[st.ID]
				obs = append(obs, Observation{
					ID:        j.ID,
					Granted:   applied[st.ID],
					Request:   st.Request,
					Ready:     st.Ready,
					Consumed:  j.Delivered,
					Remaining: j.Total.SubClamped(j.Delivered),
					Done:      j.Done,
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

		// Completions and estimate revisions at slot end.
		for _, st := range states {
			j := live[st.ID]
			if j.Done {
				delete(live, st.ID)
				changed = true
				res.Events++
				continue
			}
			if st.Kind == sched.DeadlineJob && j.est.SubClamped(j.Delivered).IsZero() {
				// The job outlived its estimate: an observable event — the
				// expected completion time passed. Revise the estimate
				// upward by a chunk (20% of the original, at least one
				// full-parallelism wave) and replan (paper §III:
				// robustness to estimation errors).
				bump := j.origEst
				for i := range bump {
					bump[i] /= 5
				}
				j.est = j.est.Add(bump.Max(j.ParallelCap))
				changed = true
				res.Events++
			}
		}
	}

	// What the horizon cut off is admitted too, so every job has an outcome.
	for _, a := range due {
		if err := admit(state, a, live); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cluster != nil {
		mres.FinalLive = cluster.Live()
		mres.Stats = cluster.Stats()
		res.Machine = mres
	}
	collectOutcomes(cfg, admits, res)
	if dr, ok := cfg.Scheduler.(sched.DegradationReporter); ok {
		d := dr.Degradation()
		res.Degradation = &d
	}
	return res, nil
}

// admissions decides every workflow's and ad-hoc job's admission record
// before the run: workflows, then ad-hoc jobs, in the order given. A
// workflow's record is rmstate.DecideWorkflow's at its exact submission
// and arrival slot, against the capacity at its submission, so one
// impossible deadline is admitted best-effort instead of aborting the
// run. A record's task durations are the true ones rounded up to whole
// seconds, which on a whole-second slot makes the state's volume the true
// volume; the estimate stays with the simulator.
func admissions(cfg Config) ([]*admission, error) {
	tr, err := trace.FromWorkload(cfg.Workflows, cfg.AdHoc)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	arrival := func(submit time.Duration) int64 { return int64((submit + cfg.SlotDur - 1) / cfg.SlotDur) }
	seen := make(map[string]bool)
	out := make([]*admission, 0, len(cfg.Workflows)+len(cfg.AdHoc))
	for wi, wf := range cfg.Workflows {
		if seen[wf.ID] {
			return nil, fmt.Errorf("sim: duplicate workflow ID %q", wf.ID)
		}
		seen[wf.ID] = true
		wrec := tr.Workflows[wi]
		// Past the truncated submission, whatever fraction of a second
		// the two lie apart.
		wrec.DeadlineSec = ceilSeconds(wf.Deadline)
		a := &admission{slot: arrival(wf.Submit)}
		for i := range wrec.Jobs {
			j := wf.Job(i)
			wrec.Jobs[i].TaskDurSec, wrec.Jobs[i].ActualTaskDurSec = ceilSeconds(j.EffectiveTaskDuration()), 0
			est := j.Volume(cfg.SlotDur)
			a.jobs = append(a.jobs, &job{submit: wf.Submit, est: est, origEst: est, taskDemand: j.TaskDemand})
		}
		a.rec = &rmstate.Record{Workflow: rmstate.DecideWorkflow(wrec, wf, a.slot, deadline.Options{
			Slot:              cfg.SlotDur,
			ClusterCap:        cfg.Capacity(int64(wf.Submit / cfg.SlotDur)),
			ForceCriticalPath: cfg.ForceCriticalPath,
		})}
		out = append(out, a)
	}
	for ai, ah := range cfg.AdHoc {
		id := rmproto.AdHocJobID(ah.ID)
		if seen[id] {
			return nil, fmt.Errorf("sim: duplicate ad-hoc ID %q", ah.ID)
		}
		seen[id] = true
		rec := &rmstate.RecAdHoc{Job: tr.AdHoc[ai], Slot: arrival(ah.Submit)}
		rec.Job.TaskDurSec = ceilSeconds(ah.TaskDuration)
		out = append(out, &admission{
			slot: rec.Slot,
			rec:  &rmstate.Record{AdHoc: rec},
			jobs: []*job{{submit: ah.Submit, taskDemand: ah.TaskDemand}},
		})
	}
	return out, nil
}

// ceilSeconds is d in whole seconds, rounded up.
func ceilSeconds(d time.Duration) int64 { return int64((d + time.Second - 1) / time.Second) }

// admit applies a's record to the state and binds its jobs to the state's.
func admit(state *rmstate.State, a *admission, live map[string]*job) error {
	if err := state.Apply(a.rec); err != nil {
		return err
	}
	if w := a.rec.Workflow; w != nil {
		for i, sj := range state.Workflows()[w.WF.ID].Jobs {
			a.jobs[i].Job = sj
		}
	} else {
		a.jobs[0].Job = state.Jobs()[rmproto.AdHocJobID(a.rec.AdHoc.Job.ID)]
	}
	for _, j := range a.jobs {
		live[j.ID] = j
	}
	return nil
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

// collectOutcomes reads every job's outcome from the state's jobs: the jobs
// in submission order, then the workflows in the order given.
func collectOutcomes(cfg Config, admits []*admission, res *Result) {
	var jobs []*job
	for _, a := range admits {
		jobs = append(jobs, a.jobs...)
	}
	slices.SortStableFunc(jobs, func(a, b *job) int {
		return cmp.Or(cmp.Compare(a.submit, b.submit), cmp.Compare(a.ID, b.ID))
	})
	completion := func(j *job) time.Duration {
		if !j.Done {
			return 0
		}
		return time.Duration(j.DoneSlot) * cfg.SlotDur
	}
	for _, j := range jobs {
		switch j.Kind {
		case sched.DeadlineJob:
			res.Jobs = append(res.Jobs, JobOutcome{
				WorkflowID: j.WorkflowID,
				JobName:    j.JobName,
				Release:    j.Release,
				Deadline:   j.Deadline,
				Completion: completion(j),
				Completed:  j.Done,
			})
			if j.BestEffort {
				res.BestEffortJobs++
			}
		case sched.AdHocJob:
			res.AdHoc = append(res.AdHoc, AdHocOutcome{
				ID:         j.ID,
				Submit:     j.submit,
				Completion: completion(j),
				Completed:  j.Done,
			})
		}
	}
	for wi, wf := range cfg.Workflows {
		o := WorkflowOutcome{ID: wf.ID, Deadline: wf.Deadline, Completed: true}
		for _, j := range admits[wi].jobs {
			o.Completion = max(o.Completion, completion(j))
			o.Completed = o.Completed && j.Done
		}
		res.Workflows = append(res.Workflows, o)
	}
}
