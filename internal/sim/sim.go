// Package sim is a slot-quantized discrete-event simulator of a YARN-like
// multi-resource cluster, replacing the paper's 20-node testbed and
// trace-driven simulator. It executes deadline-aware workflows and ad-hoc
// jobs under any sched.Scheduler and records per-job and per-workflow
// outcomes plus the cluster load time series.
//
// Execution model (documented in DESIGN.md §7.1): the jobs live in the
// resource manager's state machine, internal/rmstate, which admits them
// (a workflow by rmstate.DecideWorkflow, the RM's own decision), decides
// their readiness (the workflow DAG) and requests, and completes each one
// once its confirmed grants cover its true volume. The simulator is the
// RM's agents: each slot the RM ticks — grants clamped and placed by its
// own rule, PlaceTick, offers kept — then the nodes heartbeat one by one in
// ID order, as rmserver's Heartbeat takes each: a node confirms what it ran
// the slot before, and the offers whose job that made ready are handed off
// (DecideHandOff) on it and the nodes yet to heartbeat. A job completes at
// the end of the first slot that covers its volume. The nodes, one set
// (rmstate.Nodes), are the machines or one with the slot's capacity; the tick
// requeues the leases of the machines that failed at its slot, as ftrm's
// requeues a silent node's. The scheduler plans on the nodes' capacity, or
// on aggregate mode's declared capacity function, which may foresee a dip.
// Idealised (DESIGN.md §7): no ad-hoc gate refuses work, slots are whole
// seconds.
// What the simulator keeps of a job is what no RM knows: the estimate the
// scheduler sees and the exact submission.
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
	// Capacity is aggregate mode's cluster capacity for each slot, declared
	// ahead as the paper's cap that "could vary with time" (§V): the
	// scheduler plans on it. Required without Machines.
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
	// machines (Capacity must be nil), the scheduler's for every slot ahead
	// as the RM's, and the live machines are the nodes every grant is placed
	// on in whole tasks. A task that fits the aggregate but no single machine
	// is refused — fragmentation the fluid model cannot see — and counted in
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

// MachineResult reports what machine mode saw of the machines.
type MachineResult struct {
	// MachineEvents is how many cluster events were applied.
	MachineEvents int64
	// PeakLive/MinLive/FinalLive track the live-machine count (MinLive
	// is measured over simulated slots).
	PeakLive, MinLive, FinalLive int
	// Stats counts the applied events by kind.
	Stats machine.Stats
	// RefusedTasks is how many granted whole tasks no machine had room
	// for, at the tick or a hand-off (rmstate.State.PlaceTick, DecideHandOff):
	// the fluid plan overestimated the packable capacity by that many.
	RefusedTasks int64
	// RequeuedQuanta is how many quanta failed machines held unconfirmed,
	// which the tick requeued: the simulator's flowtime_rm_quanta_requeued.
	RequeuedQuanta int64
}

// job is what the simulator knows of a job that the RM's state does not:
// its exact submission (rmstate anchors an arrival to its slot) and a
// deadline job's estimate.
type job struct {
	*rmstate.Job // nil until its admission record is applied
	submit       time.Duration
	est, origEst resource.Vector // est is revised upward when the job outlives it
}

// admission is one workflow's or ad-hoc job's admission record, applied at
// slot, the first at or after its submission, and the jobs it admits; a
// workflow's record is decided in the run.
type admission struct {
	slot int64
	rec  *rmstate.Record
	jobs []*job // a workflow's by node index
	wf   *workflow.Workflow
	wrec trace.WorkflowRecord
}

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
	if cfg.Machines != nil {
		if cfg.Capacity != nil {
			return nil, errors.New("sim: machine mode supplies its own capacity; Capacity must be nil")
		}
		if !slices.IsSortedFunc(cfg.Machines.Events, func(a, b machine.Event) int { return cmp.Compare(a.Slot, b.Slot) }) {
			return nil, errors.New("sim: machine events not slot-sorted")
		}
		var err error
		if cluster, err = machine.NewCluster(cfg.Machines.Initial); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		mres = &MachineResult{PeakLive: cluster.Live(), MinLive: cluster.Live()}
	} else if cfg.Capacity == nil {
		return nil, errors.New("sim: nil capacity function")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler")
	}

	admits, err := admissions(cfg)
	if err != nil {
		return nil, err
	}
	due, undecided := slices.Clone(admits), slices.Clone(admits[:len(cfg.Workflows)])
	slices.SortStableFunc(due, func(a, b *admission) int { return cmp.Compare(a.slot, b.slot) })
	slices.SortFunc(undecided, func(a, b *admission) int { return cmp.Compare(a.wf.Submit, b.wf.Submit) })
	state := rmstate.New(cfg.SlotDur, rmstate.DefaultLeaseExpiry)
	live := make(map[string]*job)
	failed := make(map[string]bool) // the machines that failed this slot
	// The node set, changed in place: every machine the run has named, at
	// its capacity while live and at none otherwise, or without machines
	// one node carrying the slot's declared capacity, which the scheduler
	// sees ahead; in machine mode it sees the nodes' capacity, as the RM's.
	nodes := rmstate.NewNodes([]*rmstate.Node{{ID: "cluster"}})
	view := sched.ClusterView{SlotDur: cfg.SlotDur, Horizon: cfg.Horizon, CapAt: cfg.Capacity}
	if cluster != nil {
		all, list := make([]rmstate.Node, len(cfg.Machines.Initial)), make([]*rmstate.Node, len(cfg.Machines.Initial))
		for i, m := range cfg.Machines.Initial {
			all[i] = rmstate.Node{ID: m.ID, Capacity: m.Capacity}
			list[i] = &all[i]
		}
		slices.SortFunc(list, func(a, b *rmstate.Node) int { return cmp.Compare(a.ID, b.ID) })
		nodes = rmstate.NewNodes(list)
		view.CapAt = func(int64) resource.Vector { return nodes.Capacity() }
	}

	res := &Result{HorizonEnd: time.Duration(cfg.Horizon) * cfg.SlotDur}
	changed := true
	var prevCap resource.Vector
	var checker *InvariantChecker
	if cfg.Invariants {
		checker = NewInvariantChecker()
	}
	evIdx := 0
	var refused, requeued int64         // whole tasks no node held; quanta failed machines held
	var held, handed []rmstate.RecGrant // what the nodes launched the slot before, by node ID; the slot's hand-offs
	var qids []rmproto.QuantumNum       // held's quantum numbers
	// confirm is every heartbeat's confirm, refilled for each: Apply keeps
	// nothing of it.
	confirm := &rmstate.RecConfirm{}

	for slot := int64(0); slot < cfg.Horizon; slot++ {
		// Machine events are the ground truth behind capacity steps: apply
		// everything due this slot, each to its machine's node.
		nodes.NewSlot()
		if cluster != nil {
			clear(failed)
			for events := cfg.Machines.Events; evIdx < len(events) && events[evIdx].Slot <= slot; evIdx++ {
				e := events[evIdx]
				if err := cluster.Apply(e); err != nil {
					return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
				}
				switch e.Kind {
				case machine.SetScale:
					for _, n := range nodes.List() {
						nodes.Put(n.ID, cluster.Machine(n.ID))
					}
				case machine.Join:
					nodes.Put(e.Spec.ID, cluster.Machine(e.Spec.ID))
				case machine.Fail:
					failed[e.ID] = true
					fallthrough
				default:
					nodes.Put(e.ID, resource.Vector{})
				}
				mres.MachineEvents++
				res.Events++
			}
			if l := cluster.Live(); l > mres.PeakLive {
				mres.PeakLive = l
			} else if l < mres.MinLive {
				mres.MinLive = l
			}
		}

		// Capacity steps (node loss/recovery, maintenance dips) are
		// scheduling events.
		if cluster == nil {
			nodes.Put("cluster", cfg.Capacity(slot))
		}
		if c := nodes.Capacity(); c != prevCap && slot > 0 {
			changed = true
			res.Events++
		}
		prevCap = nodes.Capacity()

		// The workflows submitted in this slot, and at the last one those
		// past the horizon, are decided against its capacity, as the RM
		// decides one against the nodes it knows.
		for len(undecided) > 0 && (int64(undecided[0].wf.Submit/cfg.SlotDur) <= slot || slot == cfg.Horizon-1) {
			undecided[0].decide(cfg, nodes.Capacity())
			undecided = undecided[1:]
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

		// The tick. It requeues the leases of the machines that failed, as
		// ftrm requeues a silent node's. The scheduler sees the state's live
		// jobs, with their exact submissions and the estimates instead of the
		// true volumes (less what was delivered or stays in flight past the
		// requeues, the total less DecideTick's remaining), in submission order.
		tick, states := state.DecideTick(failed, true)
		requeued += int64(len(tick.Requeued))
		demandNow := false
		for i := range states {
			st, j := &states[i], live[states[i].ID]
			st.Arrived = j.submit
			if st.Kind == sched.DeadlineJob {
				st.EstRemaining = j.est.SubClamped(j.Total.Sub(st.EstRemaining))
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

		// The RM's placement clamps each grant to its job's request and to
		// what is left of the nodes, drops a grant to a blocked job, keeps
		// one to a job ready on confirm as an offer, and places the rest in
		// whole tasks.
		offers, r := state.PlaceTick(tick, states, grants, nodes)
		refused += r
		if err := state.Apply(&rmstate.Record{Tick: tick}); err != nil {
			return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
		}

		// The heartbeats, node by node in ID order, as Server.Heartbeat takes
		// each: a node confirms what it launched the slot before (one that left
		// in its ID's place, a failed one's quanta naming no lease), and when
		// that completes a job, the offers it made ready are handed off on it
		// and the nodes yet to heartbeat. With no offer out they commute: one
		// confirm. A hand-off marks the nodes up to its own heard first.
		handed = handed[:0]
		list, heard := nodes.List(), 0
		for k := 0; k < len(held); {
			id, from := held[k].NodeID, k
			for k < len(held) && (held[k].NodeID == id || len(offers) == 0) {
				k++
			}
			jobs := len(state.Jobs())
			confirm.Slot, confirm.QIDs = tick.Slot, qids[from:k]
			if err := state.Apply(&rmstate.Record{Confirm: confirm}); err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			if len(state.Jobs()) == jobs || len(offers) == 0 {
				continue
			}
			for ; heard < len(list) && list[heard].ID <= id; heard++ {
				list[heard].Hear()
			}
			var handOff *rmstate.RecTick
			handOff, offers, _, _, r = state.DecideHandOff(offers, list[heard-1])
			refused += r
			if err := state.Apply(&rmstate.Record{Tick: handOff}); err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			handed = append(handed, handOff.Grants...)
		}
		held = append(append(held[:0], tick.Grants...), handed...)
		slices.SortStableFunc(held, func(a, b rmstate.RecGrant) int { return cmp.Compare(a.NodeID, b.NodeID) })
		applied := make(map[string]resource.Vector, len(grants))
		var dlUsed, ahUsed resource.Vector
		qids = qids[:0]
		for _, g := range held {
			qids = append(qids, g.QID)
			applied[g.JobID] = applied[g.JobID].Add(g.Grant)
			if live[g.JobID].Kind == sched.DeadlineJob {
				dlUsed = dlUsed.Add(g.Grant)
			} else {
				ahUsed = ahUsed.Add(g.Grant)
			}
		}

		if demandNow && dlUsed.IsZero() && ahUsed.IsZero() && !nodes.Capacity().IsZero() {
			res.StalledSlots++
		}

		if cfg.RecordLoad {
			res.Load = append(res.Load, LoadSample{
				Slot: slot, Deadline: dlUsed, AdHoc: ahUsed, Capacity: nodes.Capacity(),
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
					Ready:     st.Ready || st.ReadyOnConfirm && !applied[st.ID].IsZero(), // handed off
					Consumed:  j.Delivered,
					Remaining: j.Total.SubClamped(j.Delivered),
					Done:      j.Done,
				})
			}
			if err := checker.CheckSlot(slot, nodes.Capacity(), obs); err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
			}
			if cluster != nil {
				if err := checker.CheckMachines(slot, dlUsed.Add(ahUsed), nodes.List()); err != nil {
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
			if leased := j.Delivered.Add(j.InFlight); st.Kind == sched.DeadlineJob && j.est.FitsIn(leased) && !j.Total.FitsIn(leased) {
				// The job outlived its estimate — it has all of it delivered
				// or in flight, and tasks to run: an observable event, the
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

	// The nodes confirm what they still hold at the next slot's heartbeat,
	// and what the horizon cut off is admitted, so every job has an outcome.
	confirm.Slot, confirm.QIDs = state.Slot()+1, qids
	if err := state.Apply(&rmstate.Record{Confirm: confirm}); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for _, a := range due {
		if err := admit(state, a, live); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cluster != nil {
		mres.FinalLive, mres.RefusedTasks, mres.RequeuedQuanta = cluster.Live(), refused, requeued
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

// admissions lists every workflow's and ad-hoc job's admission: workflows,
// then ad-hoc jobs, in the order given, each ad-hoc job's record decided. A
// record's task durations are the true ones rounded up to whole seconds,
// which on a whole-second slot makes the state's volume the true volume;
// the estimate stays with the simulator.
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
		a := &admission{slot: arrival(wf.Submit), wf: wf}
		for i := range wrec.Jobs {
			j := wf.Job(i)
			wrec.Jobs[i].TaskDurSec, wrec.Jobs[i].ActualTaskDurSec = ceilSeconds(j.EffectiveTaskDuration()), 0
			est := j.Volume(cfg.SlotDur)
			a.jobs = append(a.jobs, &job{submit: wf.Submit, est: est, origEst: est})
		}
		a.wrec = wrec
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
			jobs: []*job{{submit: ah.Submit}},
		})
	}
	return out, nil
}

// decide sets a workflow's record: rmstate.DecideWorkflow's at its exact
// submission and arrival slot, against capacity, so one impossible deadline
// is admitted best-effort instead of aborting the run.
func (a *admission) decide(cfg Config, capacity resource.Vector) {
	opts := deadline.Options{Slot: cfg.SlotDur, ClusterCap: capacity, ForceCriticalPath: cfg.ForceCriticalPath}
	a.rec = &rmstate.Record{Workflow: rmstate.DecideWorkflow(a.wrec, a.wf, a.slot, opts)}
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
	// Work confirmed at DoneSlot ran during the slot before (State.JobStatus).
	completion := func(j *job) time.Duration {
		if !j.Done {
			return 0
		}
		return time.Duration(j.DoneSlot-1) * cfg.SlotDur
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
