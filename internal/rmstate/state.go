// Package rmstate is the resource manager's replayed state: the slot
// clock, the live jobs and workflows, the leases, the archive of completed
// jobs, the quantum-number counter and the journaled leadership epoch —
// everything a journal record changes and a snapshot holds — as one value,
// State, with no lock, clock or I/O. It holds only what replay reads: the
// scheduler's plan is derived from the admitted work and is not journaled.
//
// A mutation is decided as its record without changing anything (the
// Decide and Admit methods, PlaceTick) and made by applying the record
// with Apply, which the live resource manager, its replay and a follower's
// ingest all run. DecideWorkflow, a workflow's admission decision, is the
// one the simulator (internal/sim) makes its records with too. Everything
// per process stays with the resource manager (internal/rmserver), which
// hands the deciders what they need of it: the expired nodes, the
// scheduler's grants, its node set (Nodes).
package rmstate

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// State is the replayed state. Create with New. Not safe for concurrent
// use: the resource manager guards its State with its lock.
type State struct {
	slotDur     time.Duration
	leaseExpiry int64

	slot    int64
	epoch   int64                         // the journaled leadership epoch
	nextQID rmproto.QuantumNum            // the last quantum issued
	jobs    map[string]*Job               // live jobs: a job leaves when it completes
	wfs     map[string]*Workflow          // workflows with at least one live job
	leases  map[rmproto.QuantumNum]*Lease // quantum number -> in-flight lease
	// minExpiry is a lower bound on the leases' Expiry: every grant
	// applyTick makes lowers it, and the walk it gates in DecideTick
	// recomputes it. It is derived from the leases alone, so replay and
	// Restore rebuild it and no record or snapshot holds it.
	minExpiry int64
	// done archives every completed job's final wire entry, in completion
	// order: it only grows by appending, so a reader may keep done[:n:n]
	// after the state moved on. doneMissed counts its missed entries;
	// doneAdHoc and doneWFs hold the IDs that stay refused as duplicates.
	// All of it is derived from confirm records; snapshots carry it.
	done       []rmproto.JobStatus
	doneMissed int
	doneAdHoc  map[string]struct{} // ad-hoc job IDs in done
	doneWFs    map[string]struct{} // workflow IDs with a job in done
}

// DefaultLeaseExpiry is the default per-lease confirmation budget in
// slots, the resource manager's and the simulator's. Healthy nodes confirm
// a lease one slot after launch, so the default only fires on genuinely
// lost work (node crash, dropped heartbeat response, wedged node).
const DefaultLeaseExpiry = 16

// New returns the empty state of a resource manager scheduling slots of
// slotDur whose leases expire leaseExpiry slots after their grant.
func New(slotDur time.Duration, leaseExpiry int64) *State {
	return &State{
		slotDur:     slotDur,
		leaseExpiry: leaseExpiry,
		minExpiry:   math.MaxInt64,
		jobs:        make(map[string]*Job),
		wfs:         make(map[string]*Workflow),
		leases:      make(map[rmproto.QuantumNum]*Lease),
		doneAdHoc:   make(map[string]struct{}),
		doneWFs:     make(map[string]struct{}),
	}
}

// Job is one job as the state holds it; only Apply and Restore write it.
type Job struct {
	ID         string
	Kind       sched.JobKind
	WorkflowID string
	JobName    string
	NodeIdx    int

	Arrived  time.Duration
	Release  time.Duration
	Deadline time.Duration

	Total       resource.Vector // volume to deliver
	Task        resource.Vector // one task's demand: the unit placement grants in
	Delivered   resource.Vector
	InFlight    resource.Vector // the sum of its leases' grants
	ParallelCap resource.Vector
	MinSlots    int64
	BestEffort  bool

	Done     bool
	DoneSlot int64

	adhoc *RecAdHoc // an ad-hoc job's admission record; nil for a workflow's job
}

// Lease is one issued quantum: which job it advances, which node holds it,
// and when the RM gives up waiting for its confirmation and reclaims it.
// Quanta are numbered in issue order.
type Lease struct {
	QID    rmproto.QuantumNum
	Job    *Job
	NodeID string
	Grant  resource.Vector
	Expiry int64 // slot at which the lease is reclaimed
}

// Workflow is an admitted workflow with at least one live job.
type Workflow struct {
	WF   *workflow.Workflow
	Jobs []*Job // by node index, completed ones included
	Live int    // jobs not yet completed

	rec *RecWorkflow // its admission record
}

// Slot, Epoch, Jobs, Workflows, Leases and Done read the state: the
// current slot, the journaled epoch, the live jobs and the workflows with
// a live job by ID, the in-flight leases by quantum number, and the archive of
// completed jobs in completion order with how many of them missed their
// deadline. What they return is the state's own: only Apply changes it.
func (s *State) Slot() int64                                     { return s.slot }
func (s *State) Epoch() int64                                    { return s.epoch }
func (s *State) Jobs() map[string]*Job                           { return s.jobs }
func (s *State) Workflows() map[string]*Workflow                 { return s.wfs }
func (s *State) Leases() map[rmproto.QuantumNum]*Lease           { return s.leases }
func (s *State) Done() (archive []rmproto.JobStatus, missed int) { return s.done, s.doneMissed }

// Record is the one-of union journaled per mutation. walcodec.go owns its
// on-disk form; the json tags serve `ftrm -wal-dump`.
type Record struct {
	Workflow *RecWorkflow `json:"wf,omitempty"`
	AdHoc    *RecAdHoc    `json:"adhoc,omitempty"`
	Tick     *RecTick     `json:"tick,omitempty"`
	Confirm  *RecConfirm  `json:"confirm,omitempty"`
	Requeue  *RecRequeue  `json:"requeue,omitempty"`
	Epoch    *RecEpoch    `json:"epoch,omitempty"`
}

// RecWorkflow journals one admitted workflow: the original trace record
// (for the DAG and job specs) plus everything admission computed — the
// re-anchored window and the per-job decomposed windows.
type RecWorkflow struct {
	WF         trace.WorkflowRecord `json:"wf"`
	SubmitNS   int64                `json:"submit_ns"`
	DeadlineNS int64                `json:"deadline_ns"`
	Slot       int64                `json:"slot"`
	BestEffort bool                 `json:"best_effort,omitempty"`
	Windows    []RecWindow          `json:"windows"`
}

type RecWindow struct {
	ReleaseNS  int64 `json:"release_ns"`
	DeadlineNS int64 `json:"deadline_ns"`
	MinSlots   int64 `json:"min_slots"`
}

type RecAdHoc struct {
	Job  trace.AdHocRecord `json:"job"`
	Slot int64             `json:"slot"`
}

// RecTick journals one slot advance: the post-advance slot value, the
// leases reclaimed by eviction/expiry during the tick, and the leases
// granted. A heartbeat's hand-off is a tick record at the current slot.
type RecTick struct {
	Slot     int64                `json:"slot"`
	Requeued []rmproto.QuantumNum `json:"requeued,omitempty"`
	Grants   []RecGrant           `json:"grants,omitempty"`
}

type RecGrant struct {
	QID    rmproto.QuantumNum `json:"qid"`
	JobID  string             `json:"job"`
	NodeID string             `json:"node"`
	Grant  resource.Vector    `json:"grant"`
	Expiry int64              `json:"expiry,omitempty"`
}

// Quantum is the grant as the node that runs it is handed it: the one
// place a quantum number is spelled as the ID the wire carries.
func (g RecGrant) Quantum() rmproto.Quantum {
	return rmproto.Quantum{ID: rmproto.QuantumID(int64(g.QID)), JobID: g.JobID, Grant: rmproto.FromVector(g.Grant), DeadlineSlot: g.Expiry}
}

// RecConfirm journals the quanta one heartbeat actually confirmed.
type RecConfirm struct {
	Slot int64                `json:"slot"`
	QIDs []rmproto.QuantumNum `json:"qids"`
}

// RecRequeue journals leases reclaimed outside a tick (node
// re-registration, promotion).
type RecRequeue struct {
	QIDs []rmproto.QuantumNum `json:"qids"`
}

// RecEpoch journals a leadership-epoch claim: the first epoch of a fresh
// primary, or the incremented epoch of a promotion. Shipping it is what
// fences a deposed primary's stream.
type RecEpoch struct {
	Epoch int64 `json:"epoch"`
}

// Apply applies one record, live, in replay or on a follower. A record
// applied already (a duplicate submission, a grant at or below the
// quantum-number watermark, a confirm or requeue of no lease) changes nothing,
// so replaying a tail twice converges to the same state.
func (s *State) Apply(rec *Record) error {
	switch {
	case rec.Workflow != nil:
		return s.applyWorkflow(rec.Workflow)
	case rec.AdHoc != nil:
		return s.applyAdHoc(rec.AdHoc)
	case rec.Tick != nil:
		s.applyTick(rec.Tick)
	case rec.Confirm != nil:
		s.applyConfirm(rec.Confirm)
	case rec.Requeue != nil:
		s.applyRequeue(rec.Requeue.QIDs)
	case rec.Epoch != nil:
		s.epoch = max(s.epoch, rec.Epoch.Epoch)
	}
	return nil
}

func (s *State) applyWorkflow(r *RecWorkflow) error {
	if s.knownWorkflow(r.WF.ID) {
		return nil // idempotent replay
	}
	if len(r.Windows) != len(r.WF.Jobs) {
		return fmt.Errorf("workflow %s: %d windows for %d jobs", r.WF.ID, len(r.Windows), len(r.WF.Jobs))
	}
	wf, err := r.WF.ToWorkflow()
	if err != nil {
		return fmt.Errorf("workflow %s: %w", r.WF.ID, err)
	}
	// The journaled offsets: whole seconds cannot express sub-second slots.
	wf.Submit, wf.Deadline = time.Duration(r.SubmitNS), time.Duration(r.DeadlineNS)
	arrived := time.Duration(r.Slot) * s.slotDur
	ws := &Workflow{WF: wf, Jobs: make([]*Job, wf.NumJobs()), Live: wf.NumJobs(), rec: r}
	for i := 0; i < wf.NumJobs(); i++ {
		job := wf.Job(i)
		w := r.Windows[i]
		j := &Job{
			ID:          fmt.Sprintf("%s/%s#%d", wf.ID, job.Name, i),
			Kind:        sched.DeadlineJob,
			WorkflowID:  wf.ID,
			JobName:     job.Name,
			NodeIdx:     i,
			Arrived:     arrived,
			Release:     time.Duration(w.ReleaseNS),
			Deadline:    time.Duration(w.DeadlineNS),
			Total:       job.Volume(s.slotDur),
			Task:        job.TaskDemand,
			ParallelCap: job.ParallelCap(),
			MinSlots:    w.MinSlots,
			BestEffort:  r.BestEffort,
		}
		ws.Jobs[i] = j
		s.jobs[j.ID] = j
	}
	s.wfs[wf.ID] = ws
	return nil
}

func (s *State) applyAdHoc(r *RecAdHoc) error {
	id := rmproto.AdHocJobID(r.Job.ID)
	if s.knownAdHoc(id) {
		return nil // idempotent replay
	}
	a, err := r.Job.ToAdHoc()
	if err != nil {
		return err
	}
	s.jobs[id] = &Job{
		ID:          id,
		Kind:        sched.AdHocJob,
		Arrived:     time.Duration(r.Slot) * s.slotDur,
		Total:       a.Volume(s.slotDur),
		Task:        a.TaskDemand,
		ParallelCap: a.ParallelCap(),
		adhoc:       r,
	}
	return nil
}

// applyTick applies a tick record, a slot's or a hand-off's: its requeues,
// then its grants as leases — the one place a lease is created — then its
// slot. A grant at or below the quantum-number watermark was applied
// already (by a prior replay pass or the snapshot) and is skipped.
func (s *State) applyTick(r *RecTick) {
	s.applyRequeue(r.Requeued)
	for _, g := range r.Grants {
		if g.QID <= s.nextQID {
			continue // already applied (prior replay pass or snapshot)
		}
		j, ok := s.jobs[g.JobID]
		if !ok {
			continue
		}
		s.nextQID = g.QID
		s.leases[g.QID] = &Lease{QID: g.QID, Job: j, NodeID: g.NodeID, Grant: g.Grant, Expiry: g.Expiry}
		s.minExpiry = min(s.minExpiry, g.Expiry)
		j.InFlight = j.InFlight.Add(g.Grant)
	}
	s.slot = max(s.slot, r.Slot)
}

// applyConfirm applies confirmed leases: each one's volume moves from
// in-flight to delivered, completing its job — at the record's slot — when
// the total is covered. A quantum that names no lease is skipped.
func (s *State) applyConfirm(r *RecConfirm) {
	for _, qid := range r.QIDs {
		l, ok := s.leases[qid]
		if !ok {
			continue
		}
		delete(s.leases, qid)
		j := l.Job
		j.InFlight = j.InFlight.SubClamped(l.Grant)
		j.Delivered = j.Delivered.Add(l.Grant)
		if !j.Done && j.Total.FitsIn(j.Delivered) {
			j.Done = true
			j.DoneSlot = r.Slot
			delete(s.jobs, j.ID)
			if ws := s.wfs[j.WorkflowID]; ws != nil {
				if ws.Live--; ws.Live == 0 {
					delete(s.wfs, j.WorkflowID)
				}
			}
			s.archive(s.JobStatus(j))
		}
	}
}

// applyRequeue reclaims the leases qids names: each one's volume returns
// to its job's schedulable remainder and it stops being awaited. A quantum
// that names no lease is skipped.
func (s *State) applyRequeue(qids []rmproto.QuantumNum) {
	for _, qid := range qids {
		if l, ok := s.leases[qid]; ok {
			delete(s.leases, qid)
			l.Job.InFlight = l.Job.InFlight.SubClamped(l.Grant)
		}
	}
}

// archive appends one completed job's final status to the archive.
func (s *State) archive(st rmproto.JobStatus) {
	s.done = append(s.done, st)
	if st.Missed {
		s.doneMissed++
	}
	if st.WorkflowID != "" {
		s.doneWFs[st.WorkflowID] = struct{}{}
	} else {
		s.doneAdHoc[st.ID] = struct{}{}
	}
}

// knownWorkflow and knownAdHoc report whether an ID was ever admitted,
// live or completed: admission refuses it, replay skips it.
func (s *State) knownWorkflow(id string) bool {
	_, live := s.wfs[id]
	_, done := s.doneWFs[id]
	return live || done
}

func (s *State) knownAdHoc(id string) bool {
	_, live := s.jobs[id]
	_, done := s.doneAdHoc[id]
	return live || done
}

// JobStatus is the wire entry of one job as of the current slot; for a
// completed job it no longer depends on the slot.
func (s *State) JobStatus(j *Job) rmproto.JobStatus {
	st := rmproto.JobStatus{
		ID:         j.ID,
		Kind:       j.Kind.String(),
		WorkflowID: j.WorkflowID,
		Delivered:  rmproto.FromVector(j.Delivered),
		Total:      rmproto.FromVector(j.Total),
	}
	switch {
	case j.Done:
		st.State = "completed"
		st.CompletedSec = int64((time.Duration(j.DoneSlot) * s.slotDur) / time.Second)
	case !j.Delivered.IsZero() || !j.InFlight.IsZero():
		st.State = "running"
	default:
		st.State = "pending"
	}
	if j.Kind == sched.DeadlineJob {
		st.DeadlineSec = int64(j.Deadline / time.Second)
		st.BestEffort = j.BestEffort
		// Completion is observed at the confirmation heartbeat, one slot
		// after the work ran, so a completed job is granted that slot as
		// grace: work confirmed at DoneSlot finished during DoneSlot-1. A job
		// confirmed at slot 0 or earlier (zero-volume work confirmed before
		// the first tick) finished at time zero and can never have missed.
		st.Missed = time.Duration(s.slot)*s.slotDur > j.Deadline
		if j.Done {
			st.Missed = j.DoneSlot > 0 && time.Duration(j.DoneSlot-1)*s.slotDur > j.Deadline
		}
	}
	return st
}

// Node is a node as placement sees it: its capacity, the volume this
// slot's grants have put on it so far, which placement debits, and whether
// it has heartbeaten this slot (Hear). Its set changes it; a caller reads it.
type Node struct {
	ID       string
	Capacity resource.Vector
	Placed   resource.Vector
	heard    bool
	set      *Nodes
	at       int // its index in set's list
}

// Offer is one scheduler grant to a job that could not take it yet: it
// was ready on confirm (sched.JobState.ReadyOnConfirm). An offer is a
// decision, not a mutation — no lease, nothing journaled — until a
// confirming heartbeat dispatches it (DecideHandOff).
type Offer struct {
	Job   *Job
	Grant resource.Vector
}

// AdmitWorkflow decides a workflow's admission as its record, changing
// nothing: re-anchored at the current slot and decided by DecideWorkflow
// against capacity. A known ID is a duplicate.
func (s *State) AdmitWorkflow(rec trace.WorkflowRecord, wf *workflow.Workflow, capacity resource.Vector) (*RecWorkflow, error) {
	if s.knownWorkflow(wf.ID) {
		return nil, fmt.Errorf("rmstate: duplicate workflow %q", wf.ID)
	}
	if capacity.IsZero() {
		return nil, errors.New("rmstate: no registered nodes; cannot decompose deadlines")
	}
	now := time.Duration(s.slot) * s.slotDur
	span := wf.Deadline - wf.Submit
	wf.Submit = now
	wf.Deadline = now + span
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return DecideWorkflow(rec, wf, s.slot, deadline.Options{Slot: s.slotDur, ClusterCap: capacity}), nil
}

// DecideWorkflow is the one admission decision of a workflow, the
// resource manager's and the simulator's: its record at slot, submitted
// at wf.Submit and due at wf.Deadline, each job windowed by
// deadline.Decompose under opts (which falls back to the critical path
// itself when the deadline is too tight for the antichain sets) and given
// its MinSlots against opts.ClusterCap. A workflow Decompose refuses is
// admitted best-effort, each job windowed by the whole span and left out
// of the joint plan. It changes nothing.
func DecideWorkflow(rec trace.WorkflowRecord, wf *workflow.Workflow, slot int64, opts deadline.Options) *RecWorkflow {
	dec, err := deadline.Decompose(wf, opts)
	wrec := &RecWorkflow{
		WF:         rec,
		SubmitNS:   int64(wf.Submit),
		DeadlineNS: int64(wf.Deadline),
		Slot:       slot,
		BestEffort: err != nil,
		Windows:    make([]RecWindow, wf.NumJobs()),
	}
	for i := range wrec.Windows {
		release, dl := wf.Submit, wf.Deadline
		if !wrec.BestEffort {
			release, dl = dec.Windows[i].Release, dec.Windows[i].Deadline
		}
		wrec.Windows[i] = RecWindow{
			ReleaseNS:  int64(release),
			DeadlineNS: int64(dl),
			MinSlots:   wf.Job(i).MinRuntimeSlots(opts.Slot, opts.ClusterCap),
		}
	}
	return wrec
}

// AdmitAdHoc decides an ad-hoc job's admission at the current slot as its
// record, changing nothing. An ID admitted before is a duplicate.
func (s *State) AdmitAdHoc(job trace.AdHocRecord) (*RecAdHoc, error) {
	if s.knownAdHoc(rmproto.AdHocJobID(job.ID)) {
		return nil, fmt.Errorf("rmstate: duplicate ad-hoc job %q", job.ID)
	}
	return &RecAdHoc{Job: job, Slot: s.slot}, nil
}

// DecideConfirm decides what a heartbeat's confirms do, changing nothing:
// each quantum it names that is a live lease of the sending node is
// confirmed, once, at the current slot. Any other — already confirmed,
// requeued after the node's eviction, from before an RM restart, or held
// by another node, or no ID of the RM's own form — is stale and ignored,
// so a re-registering node can never double-deliver stale work; stale
// counts them. It is the one place a node's ID is read as a number.
func (s *State) DecideConfirm(nodeID string, qids []string) (rec *RecConfirm, stale int64) {
	rec = &RecConfirm{Slot: s.slot}
	seen := make(map[rmproto.QuantumNum]bool, len(qids))
	for _, qid := range qids {
		n, own := rmproto.ParseQuantumID(qid)
		q := rmproto.QuantumNum(n)
		if l, ok := s.leases[q]; own && ok && l.NodeID == nodeID && !seen[q] {
			seen[q] = true
			rec.QIDs = append(rec.QIDs, q)
		} else {
			stale++
		}
	}
	return rec, stale
}

// DecideRequeue decides the requeue of the leases keep selects, changing
// nothing: their numbers in issue order — the leases are a map, and the
// same run must journal the same bytes.
func (s *State) DecideRequeue(keep func(*Lease) bool) *RecRequeue {
	rec := &RecRequeue{}
	for qid, l := range s.leases {
		if keep(l) {
			rec.QIDs = append(rec.QIDs, qid)
		}
	}
	slices.Sort(rec.QIDs)
	return rec
}

// DecideHandOff decides which offers a confirming heartbeat dispatches:
// those whose job is ready now, placed by the tick's rule as the grants the
// tick would have made, first on the confirming node and then on the nodes
// of its set that have not heartbeaten this slot, in the set's order, in a
// tick record that does not advance the slot. An offer is spent by one
// attempt: what found no room lapses. It returns the offers whose job is not
// ready yet, how many were dispatched and lapsed, and how many whole tasks
// no node had room for.
func (s *State) DecideHandOff(offers []Offer, confirming *Node) (rec *RecTick, kept []Offer, dispatched, lapsed, refused int64) {
	rec = &RecTick{Slot: s.slot}
	kept = offers[:0]
	for _, o := range offers {
		if !s.ready(o.Job) {
			kept = append(kept, o)
			continue
		}
		placed, r := s.place(o.Job, o.Grant, confirming.set, confirming, rec)
		refused += r
		if placed.IsZero() {
			lapsed++
		} else {
			dispatched++
		}
	}
	return rec, kept, dispatched, lapsed, refused
}

// DecideTick is the first step of deciding a slot, changing nothing but a
// derived bound: the tick record of the next slot with the leases it
// requeues — those held by the nodes in expired and those past their
// expiry — and, with schedule set, the live jobs as the scheduler sees
// them, net of those requeues, in arrival order. A job ready on confirm is
// one whose every unfinished predecessor has its whole remainder in
// flight. It walks the leases only when one can be reclaimed: a node
// expired or the slot reached minExpiry, which the walk recomputes over
// every lease, those it requeues included, since the record may not be
// applied.
func (s *State) DecideTick(expired map[string]bool, schedule bool) (*RecTick, []sched.JobState) {
	rec := &RecTick{Slot: s.slot + 1}
	if len(expired) > 0 || s.slot >= s.minExpiry {
		s.minExpiry = math.MaxInt64
		rec.Requeued = s.DecideRequeue(func(l *Lease) bool {
			s.minExpiry = min(s.minExpiry, l.Expiry)
			return expired[l.NodeID] || s.slot >= l.Expiry
		}).QIDs
	}
	if !schedule {
		return rec, nil
	}
	var back map[*Job]resource.Vector
	if len(rec.Requeued) > 0 {
		back = make(map[*Job]resource.Vector)
		for _, qid := range rec.Requeued {
			l := s.leases[qid]
			back[l.Job] = back[l.Job].Add(l.Grant)
		}
	}
	inFlight := func(j *Job) resource.Vector { return j.InFlight.SubClamped(back[j]) }
	states := make([]sched.JobState, 0, len(s.jobs))
	//det:unordered states is sorted by arrival, then ID, right after the loop
	for _, j := range s.jobs {
		remaining := j.Total.SubClamped(j.Delivered).SubClamped(inFlight(j))
		st := sched.JobState{
			ID:         j.ID,
			Kind:       j.Kind,
			Arrived:    j.Arrived,
			Ready:      s.ready(j),
			Request:    j.ParallelCap.Min(remaining),
			BestEffort: j.BestEffort,
		}
		if j.Kind == sched.DeadlineJob {
			st.ReadyOnConfirm = !st.Ready && s.readyOnConfirm(j, inFlight)
			st.WorkflowID = j.WorkflowID
			st.JobName = j.JobName
			st.Release = j.Release
			st.Deadline = j.Deadline
			st.EstRemaining = remaining
			st.ParallelCap = j.ParallelCap
			st.MinSlots = j.MinSlots
		}
		states = append(states, st)
	}
	sort.Slice(states, func(a, b int) bool {
		if states[a].Arrived != states[b].Arrived {
			return states[a].Arrived < states[b].Arrived
		}
		return states[a].ID < states[b].ID
	})
	return rec, states
}

// PlaceTick is the second step: it places the scheduler's grants to the
// ready jobs of jobs (DecideTick's), each clamped to the job's request and
// to what the grants before it left of the nodes' capacity, on the nodes
// that have not heartbeaten as rec's grants (State.place). A grant to a job that is ready on confirm
// comes back as an offer, clamped by what the ready jobs left. It also
// returns how many whole tasks no node had room for.
func (s *State) PlaceTick(rec *RecTick, jobs []sched.JobState, grants map[string]resource.Vector, nodes *Nodes) (offers []Offer, refused int64) {
	for _, st := range jobs {
		g, ok := grants[st.ID]
		if !ok || !(st.Ready || st.ReadyOnConfirm) {
			continue
		}
		g = g.Min(st.Request)
		if !st.Ready {
			offers = append(offers, Offer{Job: s.jobs[st.ID], Grant: g})
			continue
		}
		g = g.Min(nodes.free)
		if g.IsZero() || g.AnyNegative() {
			continue
		}
		_, r := s.place(s.jobs[st.ID], g, nodes, nil, rec)
		refused += r
	}
	capLeft := nodes.free
	kept := offers[:0]
	for _, o := range offers {
		o.Grant = o.Grant.Min(capLeft)
		if o.Grant.IsZero() || o.Grant.AnyNegative() {
			continue
		}
		capLeft = capLeft.Sub(o.Grant)
		kept = append(kept, o)
	}
	return kept, refused
}

// place is the one placement rule: it lands g, a grant to j, as grants of
// rec first-fit against what each node has left this slot, trying
// confirming (nil at a tick) before the nodes that have not heartbeaten.
// ⌊g / j.Task⌋ whole tasks go first, each node taking as many as it has
// room for; those no node has room for are refused and counted. The rest
// (the sub-task remainder, or all of g when it holds no task) goes as one
// piece on the first node that holds it, split only when none does, so it
// is never dropped while the nodes' summed room covers it. Each grant
// takes the next quantum number, issued in the slot before rec's and expiring
// leaseExpiry slots after it. It returns the volume placed.
func (s *State) place(j *Job, g resource.Vector, nodes *Nodes, confirming *Node, rec *RecTick) (placed resource.Vector, refused int64) {
	expiry := rec.Slot - 1 + s.leaseExpiry
	grant := func(n *Node, v resource.Vector) {
		nodes.take(n, v)
		placed = placed.Add(v)
		qid := s.nextQID + rmproto.QuantumNum(len(rec.Grants)) + 1
		rec.Grants = append(rec.Grants, RecGrant{QID: qid, JobID: j.ID, NodeID: n.ID, Grant: v, Expiry: expiry})
	}
	fit := func(need resource.Vector) *Node {
		if confirming != nil && need.FitsIn(confirming.free()) {
			return confirming
		}
		return nodes.first(need, 1)
	}
	tasks := wholeTasks(g, j.Task)
	rest := g.Sub(j.Task.Scale(tasks))
	for tasks > 0 {
		n := fit(j.Task)
		if n == nil {
			break
		}
		k := min(tasks, wholeTasks(n.free(), j.Task))
		grant(n, j.Task.Scale(k))
		tasks -= k
	}
	if rest.IsZero() {
		return placed, tasks
	}
	if n := fit(rest); n != nil {
		grant(n, rest)
		return placed, tasks
	}
	split := func(n *Node) {
		if chunk := rest.Min(n.free()); !chunk.IsZero() {
			grant(n, chunk)
			rest = rest.Sub(chunk)
		}
	}
	if confirming != nil {
		split(confirming)
	}
	for _, n := range nodes.list {
		if rest.IsZero() {
			break
		}
		if !n.heard {
			split(n)
		}
	}
	return placed, tasks
}

// free is what the node has left of its capacity this slot.
func (n *Node) free() resource.Vector { return n.Capacity.SubClamped(n.Placed) }

// wholeTasks is how many tasks of demand task fit in v: none when the
// task demands nothing.
func wholeTasks(v, task resource.Vector) int64 {
	n := int64(-1)
	for _, k := range resource.Kinds() {
		if t := task.Get(k); t > 0 && (n < 0 || v.Get(k)/t < n) {
			n = v.Get(k) / t
		}
	}
	return max(n, 0)
}

// Nodes is a node set, in the order placement walks it: ID order, in the
// resource manager and the simulator, which each keep one set for their
// whole run and change it in place. It sums their capacity and the room of
// those that have not heartbeaten this slot, and keeps a segment tree of
// the room's kind-wise maxima, so a slot places in O(grants · log nodes)
// however many nodes idle, and a join, leave, failure, capacity change or
// heartbeat is one point update (Put, Hear).
type Nodes struct {
	list     []*Node
	room     []resource.Vector // room[size+i] is what list[i] may take; room[1] the root
	size     int               // leaves, a power of two
	free     resource.Vector   // the room summed over the nodes
	capacity resource.Vector   // the capacity summed over the nodes
	touched  []*Node           // the nodes placed on or heard since the last NewSlot
}

// NewNodes returns list as a node set, each node holding what its Placed
// already does.
func NewNodes(list []*Node) *Nodes {
	ns := &Nodes{list: list}
	ns.build()
	return ns
}

// build lays the tree over the list, from an empty one.
func (ns *Nodes) build() {
	ns.size, ns.free, ns.capacity = 1, resource.Vector{}, resource.Vector{}
	for ns.size < len(ns.list) {
		ns.size *= 2
	}
	ns.room = make([]resource.Vector, 2*ns.size)
	for i, n := range ns.list {
		n.set, n.at = ns, i
		ns.capacity = ns.capacity.Add(n.Capacity)
		ns.update(n)
	}
}

// List returns the nodes in the order placement walks them.
func (ns *Nodes) List() []*Node { return ns.list }

// Capacity returns the nodes' capacity summed.
func (ns *Nodes) Capacity() resource.Vector { return ns.capacity }

// Put makes node id a fresh node of the given capacity, as it joins,
// registers (again), leaves, fails or expires (no capacity; it stays in the
// set) or is rescaled: a point update, but for an ID the set has never held,
// which joins it in ID order and lays the tree anew. It returns the node.
func (ns *Nodes) Put(id string, capacity resource.Vector) *Node {
	i, found := slices.BinarySearchFunc(ns.list, id, func(n *Node, id string) int { return cmp.Compare(n.ID, id) })
	if !found {
		ns.list = slices.Insert(ns.list, i, &Node{ID: id})
		ns.build()
	}
	n := ns.list[i]
	ns.capacity = ns.capacity.Sub(n.Capacity).Add(capacity)
	n.Capacity, n.Placed, n.heard = capacity, resource.Vector{}, false
	ns.update(n)
	return n
}

// Hear marks n as heartbeaten until NewSlot: it has taken its queue for
// the slot, so placement passes it by, but for a hand-off its own confirm
// readied (DecideHandOff).
func (n *Node) Hear() {
	if !n.heard {
		if n.Placed.IsZero() {
			n.set.touched = append(n.set.touched, n)
		}
		n.heard = true
		n.set.update(n)
	}
}

// NewSlot starts the next slot: what was placed is lifted off the nodes
// again, and no node has heartbeaten.
func (ns *Nodes) NewSlot() {
	for _, n := range ns.touched {
		n.Placed, n.heard = resource.Vector{}, false
		ns.update(n)
	}
	ns.touched = ns.touched[:0]
}

// first returns the first node under entry i that has not heartbeaten and
// has room for need, non-zero, or nil if none has.
func (ns *Nodes) first(need resource.Vector, i int) *Node {
	switch {
	case !need.FitsIn(ns.room[i]):
		return nil
	case i >= ns.size:
		return ns.list[i-ns.size]
	}
	if n := ns.first(need, 2*i); n != nil {
		return n
	}
	return ns.first(need, 2*i+1)
}

// take places v on n.
func (ns *Nodes) take(n *Node, v resource.Vector) {
	if n.Placed.IsZero() && !n.heard {
		ns.touched = append(ns.touched, n)
	}
	n.Placed = n.Placed.Add(v)
	ns.update(n)
}

// update takes n's room — what it has left, none once it has heartbeaten —
// into the sum and the tree, up to the first entry it leaves as it was.
func (ns *Nodes) update(n *Node) {
	room := n.free()
	if n.heard {
		room = resource.Vector{}
	}
	i := ns.size + n.at
	ns.free = ns.free.Sub(ns.room[i]).Add(room)
	for ns.room[i] = room; i > 1; {
		i /= 2
		if room = ns.room[2*i].Max(ns.room[2*i+1]); room == ns.room[i] {
			return
		}
		ns.room[i] = room
	}
}

func (s *State) ready(j *Job) bool {
	if j.Kind != sched.DeadlineJob {
		return true
	}
	ws := s.wfs[j.WorkflowID]
	for _, p := range ws.WF.DAG().Predecessors(j.NodeIdx) {
		if !ws.Jobs[p].Done {
			return false
		}
	}
	return true
}

// readyOnConfirm reports, for a deadline job that is not ready, whether it
// will be once the leases in flight are confirmed: every unfinished
// predecessor has its whole remainder in flight, as inFlight counts it.
func (s *State) readyOnConfirm(j *Job, inFlight func(*Job) resource.Vector) bool {
	ws := s.wfs[j.WorkflowID]
	for _, p := range ws.WF.DAG().Predecessors(j.NodeIdx) {
		if pj := ws.Jobs[p]; !pj.Done && !pj.Total.FitsIn(pj.Delivered.Add(inFlight(pj))) {
			return false
		}
	}
	return true
}

// snapVersion identifies the snapshot schema: the live state as the
// records Apply made it from, beside each job's progress and the archive.
// Earlier versions are refused by name: nothing writes them, under the
// condition walcodec.go states for the journal.
const snapVersion = 7

// oldSnapshots names the forms of the versions before snapVersion.
var oldSnapshots = map[int]string{
	6: "that held the live plan",
	5: "that held its plan as JSON",
	4: "that held jobs and leases in a schema of their own",
	3: "that carried fault counters and in-flight volume",
	2: "with θ levels in its plan that predates front-coded journal IDs",
	1: "that predates the completed-job archive",
}

// snapState is the full-state snapshot payload. Records are journal
// payloads: each live workflow's and ad-hoc job's admission, one tick at
// Slot granting the leases, which rebuild each job's in-flight volume.
type snapState struct {
	Version   int                 `json:"version"`
	SlotDurNS int64               `json:"slot_dur_ns"`
	Slot      int64               `json:"slot"`
	Epoch     int64               `json:"epoch,omitempty"`
	NextQID   int64               `json:"next_qid"`
	Workflows []snapWorkflow      `json:"workflows,omitempty"`
	AdHoc     []snapAdHoc         `json:"adhoc,omitempty"`
	Leases    []byte              `json:"leases,omitempty"`
	Done      []rmproto.JobStatus `json:"done,omitempty"` // the archive, in completion order
}

type snapWorkflow struct {
	Record []byte    `json:"record"`
	Jobs   []snapJob `json:"jobs"` // by node index, completed ones included
}

type snapJob struct {
	Delivered resource.Vector `json:"delivered"`
	Done      bool            `json:"done,omitempty"`
	DoneSlot  int64           `json:"done_slot,omitempty"`
}

type snapAdHoc struct {
	Record    []byte          `json:"record"`
	Delivered resource.Vector `json:"delivered"`
}

// Snapshot serializes the whole state — live tables and the archive —
// deterministically (map iteration order must not leak into the payload).
func (s *State) Snapshot() ([]byte, error) {
	var codec Codec
	st := snapState{
		Version:   snapVersion,
		SlotDurNS: int64(s.slotDur),
		Slot:      s.slot,
		Epoch:     s.epoch,
		NextQID:   int64(s.nextQID),
		Done:      s.done,
	}
	for _, id := range sortedKeys(s.wfs) {
		ws := s.wfs[id]
		rec, err := codec.Encode(&Record{Workflow: ws.rec})
		if err != nil {
			return nil, fmt.Errorf("snapshot workflow %s: %w", id, err)
		}
		sw := snapWorkflow{Record: slices.Clone(rec), Jobs: make([]snapJob, len(ws.Jobs))}
		for i, j := range ws.Jobs {
			sw.Jobs[i] = snapJob{Delivered: j.Delivered, Done: j.Done, DoneSlot: j.DoneSlot}
		}
		st.Workflows = append(st.Workflows, sw)
	}
	for _, id := range sortedKeys(s.jobs) {
		if j := s.jobs[id]; j.adhoc != nil {
			rec, err := codec.Encode(&Record{AdHoc: j.adhoc})
			if err != nil {
				return nil, fmt.Errorf("snapshot ad-hoc job %s: %w", id, err)
			}
			st.AdHoc = append(st.AdHoc, snapAdHoc{Record: slices.Clone(rec), Delivered: j.Delivered})
		}
	}
	if len(s.leases) > 0 {
		tick := &RecTick{Slot: s.slot}
		//det:unordered the grants are sorted by quantum number right after the loop
		for _, l := range s.leases {
			tick.Grants = append(tick.Grants, RecGrant{QID: l.QID, JobID: l.Job.ID, NodeID: l.NodeID, Grant: l.Grant, Expiry: l.Expiry})
		}
		// In issue order: applyTick skips a grant at or below its watermark.
		slices.SortFunc(tick.Grants, func(a, b RecGrant) int { return cmp.Compare(a.QID, b.QID) })
		rec, err := codec.Encode(&Record{Tick: tick})
		if err != nil {
			return nil, fmt.Errorf("snapshot leases: %w", err)
		}
		st.Leases = slices.Clone(rec)
	}
	return json.Marshal(&st)
}

// Restore returns the state a snapshot holds, applying its records to
// New(slotDur, leaseExpiry): admissions before the archive, whose IDs they
// would take for duplicates, then the leases. It refuses a snapshot of
// another version or slot duration, or whose records do not make the state
// it describes (a workflow entry that is no workflow, a lease on no job).
func Restore(slotDur time.Duration, leaseExpiry int64, payload []byte) (*State, error) {
	// The version first: an earlier version's fields need not fit this one's.
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(payload, &head); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if form, old := oldSnapshots[head.Version]; old {
		return nil, fmt.Errorf("snapshot version %d, the form %s, which is no longer read (want %d)", head.Version, form, snapVersion)
	} else if head.Version != snapVersion {
		return nil, fmt.Errorf("snapshot version %d, want %d", head.Version, snapVersion)
	}
	var st snapState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if got := time.Duration(st.SlotDurNS); got != slotDur {
		return nil, fmt.Errorf("state dir was written with slot=%v, server runs slot=%v", got, slotDur)
	}
	s := New(slotDur, leaseExpiry)
	s.slot, s.epoch = st.Slot, st.Epoch
	var codec Codec
	for i, sw := range st.Workflows {
		rec, err := s.applySnapRecord(&codec, sw.Record, "the admission record of a new workflow", func(r *Record) bool {
			return r.Workflow != nil && !s.knownWorkflow(r.Workflow.WF.ID)
		})
		if err != nil {
			return nil, fmt.Errorf("snapshot workflow %d: %w", i, err)
		}
		ws := s.wfs[rec.Workflow.WF.ID]
		if len(sw.Jobs) != len(ws.Jobs) {
			return nil, fmt.Errorf("snapshot workflow %s: progress of %d jobs for %d", ws.WF.ID, len(sw.Jobs), len(ws.Jobs))
		}
		for idx, p := range sw.Jobs {
			j := ws.Jobs[idx]
			j.Delivered, j.Done, j.DoneSlot = p.Delivered, p.Done, p.DoneSlot
			if j.Done {
				delete(s.jobs, j.ID)
				ws.Live--
			}
		}
	}
	for i, sa := range st.AdHoc {
		rec, err := s.applySnapRecord(&codec, sa.Record, "the admission record of a new ad-hoc job", func(r *Record) bool {
			return r.AdHoc != nil && !s.knownAdHoc(rmproto.AdHocJobID(r.AdHoc.Job.ID))
		})
		if err != nil {
			return nil, fmt.Errorf("snapshot ad-hoc job %d: %w", i, err)
		}
		s.jobs[rmproto.AdHocJobID(rec.AdHoc.Job.ID)].Delivered = sa.Delivered
	}
	for _, d := range st.Done {
		s.archive(d)
	}
	if len(st.Leases) > 0 {
		rec, err := s.applySnapRecord(&codec, st.Leases, "a tick record", func(r *Record) bool { return r.Tick != nil })
		if err != nil {
			return nil, fmt.Errorf("snapshot leases: %w", err)
		}
		for _, g := range rec.Tick.Grants {
			if l := s.leases[g.QID]; l == nil || l.Job.ID != g.JobID {
				return nil, fmt.Errorf("snapshot lease %s references unknown job %s, or is out of issue order", g.QID, g.JobID)
			}
		}
	}
	s.nextQID = max(s.nextQID, rmproto.QuantumNum(st.NextQID))
	return s, nil
}

// applySnapRecord decodes one of a snapshot's records and applies it if is
// holds for it; otherwise it refuses the record as not what it should be.
func (s *State) applySnapRecord(codec *Codec, payload []byte, should string, is func(*Record) bool) (Record, error) {
	rec, err := codec.Decode(payload)
	if err == nil && !is(&rec) {
		err = errors.New("not " + should)
	}
	if err == nil {
		err = s.Apply(&rec)
	}
	return rec, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
