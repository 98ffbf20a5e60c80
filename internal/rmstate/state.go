// Package rmstate is the resource manager's replayed state: the slot
// clock, the live jobs and workflows, the leases, the archive of completed
// jobs, the quantum-ID counter and the journaled leadership epoch —
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
// scheduler's grants, a node view.
package rmstate

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
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
	epoch   int64 // the journaled leadership epoch
	nextQID int64
	jobs    map[string]*Job      // live jobs: a job leaves when it completes
	wfs     map[string]*Workflow // workflows with at least one live job
	leases  map[string]*Lease    // quantum ID -> in-flight lease
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

// New returns the empty state of a resource manager scheduling slots of
// slotDur whose leases expire leaseExpiry slots after their grant.
func New(slotDur time.Duration, leaseExpiry int64) *State {
	return &State{
		slotDur:     slotDur,
		leaseExpiry: leaseExpiry,
		jobs:        make(map[string]*Job),
		wfs:         make(map[string]*Workflow),
		leases:      make(map[string]*Lease),
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
type Lease struct {
	QID    string
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
// a live job by ID, the in-flight leases by quantum ID, and the archive of
// completed jobs in completion order with how many of them missed their
// deadline. What they return is the state's own: only Apply changes it.
func (s *State) Slot() int64                                     { return s.slot }
func (s *State) Epoch() int64                                    { return s.epoch }
func (s *State) Jobs() map[string]*Job                           { return s.jobs }
func (s *State) Workflows() map[string]*Workflow                 { return s.wfs }
func (s *State) Leases() map[string]*Lease                       { return s.leases }
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
	Slot     int64      `json:"slot"`
	Requeued []string   `json:"requeued,omitempty"`
	Grants   []RecGrant `json:"grants,omitempty"`
}

type RecGrant struct {
	QID    string          `json:"qid"`
	JobID  string          `json:"job"`
	NodeID string          `json:"node"`
	Grant  resource.Vector `json:"grant"`
	Expiry int64           `json:"expiry,omitempty"`
}

// Quantum is the grant as the node that runs it is handed it.
func (g RecGrant) Quantum() rmproto.Quantum {
	return rmproto.Quantum{ID: g.QID, JobID: g.JobID, Grant: rmproto.FromVector(g.Grant), DeadlineSlot: g.Expiry}
}

// RecConfirm journals the quanta one heartbeat actually confirmed.
type RecConfirm struct {
	Slot int64    `json:"slot"`
	QIDs []string `json:"qids"`
}

// RecRequeue journals leases reclaimed outside a tick (node
// re-registration, promotion).
type RecRequeue struct {
	QIDs []string `json:"qids"`
}

// RecEpoch journals a leadership-epoch claim: the first epoch of a fresh
// primary, or the incremented epoch of a promotion. Shipping it is what
// fences a deposed primary's stream.
type RecEpoch struct {
	Epoch int64 `json:"epoch"`
}

// Apply applies one record, live, in replay or on a follower. A record
// applied already (a duplicate submission, a grant at or below the
// quantum-ID watermark, a confirm or requeue of no lease) changes nothing,
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
		ParallelCap: a.ParallelCap(),
		adhoc:       r,
	}
	return nil
}

// applyTick applies a tick record, a slot's or a hand-off's: its requeues,
// then its grants as leases — the one place a lease is created — then its
// slot. A grant at or below the quantum-ID watermark was applied already
// (by a prior replay pass or the snapshot) and is skipped.
func (s *State) applyTick(r *RecTick) {
	s.applyRequeue(r.Requeued)
	for _, g := range r.Grants {
		n, own := rmproto.ParseQuantumID(g.QID)
		if !own || n <= s.nextQID {
			continue // already applied (prior replay pass or snapshot), or not an ID this RM issues
		}
		j, ok := s.jobs[g.JobID]
		if !ok {
			continue
		}
		s.nextQID = n
		s.leases[g.QID] = &Lease{QID: g.QID, Job: j, NodeID: g.NodeID, Grant: g.Grant, Expiry: g.Expiry}
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
func (s *State) applyRequeue(qids []string) {
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

// Node is a node as placement sees it: its capacity, and the volume this
// slot's grants have put on it so far, which placement debits.
type Node struct {
	ID       string
	Capacity resource.Vector
	Placed   resource.Vector
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
// by another node — is stale and ignored, so a re-registering node can
// never double-deliver stale work; stale counts them.
func (s *State) DecideConfirm(nodeID string, qids []string) (rec *RecConfirm, stale int64) {
	rec = &RecConfirm{Slot: s.slot}
	seen := make(map[string]bool, len(qids))
	for _, qid := range qids {
		if l, ok := s.leases[qid]; ok && l.NodeID == nodeID && !seen[qid] {
			seen[qid] = true
			rec.QIDs = append(rec.QIDs, qid)
		} else {
			stale++
		}
	}
	return rec, stale
}

// DecideRequeue decides the requeue of the leases keep selects, changing
// nothing: their IDs in ID order — the leases are a map, and the same run
// must journal the same bytes.
func (s *State) DecideRequeue(keep func(*Lease) bool) *RecRequeue {
	rec := &RecRequeue{}
	for qid, l := range s.leases {
		if keep(l) {
			rec.QIDs = append(rec.QIDs, qid)
		}
	}
	sort.Strings(rec.QIDs)
	return rec
}

// DecideHandOff decides which offers a confirming heartbeat dispatches:
// those whose job is ready now, placed first-fit on the nodes targets
// returns when an offer is ready — the heartbeating node, then those that
// will still fetch their queue this slot — as the grants the tick would
// have made, in a tick record that does not advance the slot. An offer is
// spent by one attempt: what found no room lapses. It returns the offers
// whose job is not ready yet, and how many were dispatched and lapsed.
func (s *State) DecideHandOff(offers []Offer, targets func() []*Node) (rec *RecTick, kept []Offer, dispatched, lapsed int64) {
	rec = &RecTick{Slot: s.slot}
	var nodes []*Node
	kept = offers[:0]
	for _, o := range offers {
		if !s.ready(o.Job) {
			kept = append(kept, o)
			continue
		}
		if nodes == nil {
			nodes = targets()
		}
		placed := len(rec.Grants)
		s.place(o.Job.ID, o.Grant, nodes, rec)
		if len(rec.Grants) > placed {
			dispatched++
		} else {
			lapsed++
		}
	}
	return rec, kept, dispatched, lapsed
}

// DecideTick is the first step of deciding a slot, changing nothing: the
// tick record of the next slot with the leases it requeues — those held
// by the nodes in expired and those past their expiry — and, with
// schedule set, the live jobs as the scheduler sees them, net of those
// requeues, in arrival order. A job ready on confirm is one whose every
// unfinished predecessor has its whole remainder in flight.
func (s *State) DecideTick(expired map[string]bool, schedule bool) (*RecTick, []sched.JobState) {
	rec := &RecTick{Slot: s.slot + 1}
	rec.Requeued = s.DecideRequeue(func(l *Lease) bool {
		return expired[l.NodeID] || s.slot >= l.Expiry
	}).QIDs
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
// ready jobs of jobs (DecideTick's) on nodes first-fit, splitting across
// nodes as needed, as rec's grants. A grant to a job that is ready on
// confirm comes back as an offer, clamped by what the ready jobs left of
// the nodes' capacity.
func (s *State) PlaceTick(rec *RecTick, jobs []sched.JobState, grants map[string]resource.Vector, nodes []*Node) []Offer {
	var capLeft resource.Vector
	for _, n := range nodes {
		capLeft = capLeft.Add(n.Capacity)
	}
	var offers []Offer
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
		g = g.Min(capLeft)
		if g.IsZero() || g.AnyNegative() {
			continue
		}
		capLeft = capLeft.Sub(g)
		s.place(st.ID, g, nodes, rec)
		// First-fit takes nothing more from a full node this slot, so the
		// next grant starts past the full ones in front: while the nodes
		// fill in order, a tick places in O(nodes + grants).
		for len(nodes) > 0 && nodes[0].Placed == nodes[0].Capacity {
			nodes = nodes[1:]
		}
	}
	kept := offers[:0]
	for _, o := range offers {
		o.Grant = o.Grant.Min(capLeft)
		if o.Grant.IsZero() || o.Grant.AnyNegative() {
			continue
		}
		capLeft = capLeft.Sub(o.Grant)
		kept = append(kept, o)
	}
	return kept
}

// place splits a grant into grants of rec: g for job, first-fit over nodes
// in the order given, against what each node has left of its capacity
// this slot (Node.Placed, which it debits). Each chunk is granted under
// the next quantum ID, issued in the slot before rec's and expiring
// leaseExpiry slots after it; applying rec makes it a lease. What fits
// nowhere is dropped.
func (s *State) place(job string, g resource.Vector, nodes []*Node, rec *RecTick) {
	expiry := rec.Slot - 1 + s.leaseExpiry
	for _, n := range nodes {
		if g.IsZero() {
			break
		}
		chunk := g.Min(n.Capacity.Sub(n.Placed))
		if chunk.IsZero() {
			continue
		}
		n.Placed = n.Placed.Add(chunk)
		g = g.Sub(chunk)
		qid := rmproto.QuantumID(s.nextQID + int64(len(rec.Grants)) + 1)
		rec.Grants = append(rec.Grants, RecGrant{QID: qid, JobID: job, NodeID: n.ID, Grant: chunk, Expiry: expiry})
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
		NextQID:   s.nextQID,
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
		// By number: applyTick skips IDs at or below its watermark, "q-10" < "q-9".
		slices.SortFunc(tick.Grants, func(a, b RecGrant) int {
			na, _ := rmproto.ParseQuantumID(a.QID)
			nb, _ := rmproto.ParseQuantumID(b.QID)
			return cmp.Compare(na, nb)
		})
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
				return nil, fmt.Errorf("snapshot lease %s references unknown job %s, or is out of quantum-ID order", g.QID, g.JobID)
			}
		}
	}
	s.nextQID = max(s.nextQID, st.NextQID)
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
