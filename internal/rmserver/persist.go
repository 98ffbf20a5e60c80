// Durability: the RM journals every state mutation to a write-ahead log
// (internal/store) and periodically snapshots its full state. WAL
// records capture the *outcome* of a mutation (decomposed windows,
// issued lease IDs, confirmed quanta), not its input, so replay is
// deterministic without nodes, a scheduler, or the deadline decomposer
// — and idempotent, so replaying the same tail twice (or recovering the
// same directory twice) converges to the same state.
//
// What is journaled and what is not:
//
//   - Workflow and ad-hoc submissions, with their decomposed windows
//     and min-slot counts (capacity at submit time is not recoverable).
//   - Every tick: the new slot value, leases granted, leases requeued
//     by node eviction or lease expiry, and the fault counters.
//   - Heartbeat confirmations that actually applied (stale confirms
//     change nothing and are not journaled), and after them the leases
//     the heartbeat dispatched from the tick's offers, as a tick record
//     that advances nothing (an offer itself is never journaled).
//   - Lease requeues triggered by node re-registration.
//   - Leadership-epoch claims (initial primary start and promotions),
//     so the fencing token survives crashes and ships to followers.
//   - Plan diffs, when the scheduler streams its plan (one record per
//     revision, applied transactionally; see planstream.go), and the
//     wholesale plan rebases that repair a broken diff chain.
//   - NOT journaled: node registrations and heartbeat liveness. Nodes
//     are soft state re-established by the agents' re-register loop;
//     accordingly, recovery requeues every in-flight lease (its node
//     binding died with the process) and re-grants the work.
//   - NOT journaled: the archive of completed jobs (Server.done). It is
//     derived — the confirm records determine which jobs completed, when
//     and in which order — so replay rebuilds it and snapshots carry it.
//   - NOT journaled: drain state. Draining is a property of the process
//     ("for the life of the process"), not of the workload — a restarted
//     RM schedules again, otherwise a post-shutdown restart would come
//     up permanently refusing work.
//
// Durability ordering: under the always-fsync policy, no side effect of
// a mutation that a crash could not undo on its own escapes the RM
// before its record is durable. Submissions are acknowledged only after
// commit — there is nobody behind a submission to send it again. A
// tick's grants are enqueued onto nodes only after the tick record
// commits, so a heartbeat can never hand a node work that a post-crash
// recovery would not know was granted; a tick whose commit fails hands
// out nothing. The re-registration requeue commits before it is
// acknowledged.
//
// Heartbeat confirms are the exception, on purpose. A heartbeat applies
// its confirms, journals them (WAL order is mutation order) and replies
// without waiting for the disk; the record becomes durable with the next
// commit the RM makes anyway — the coming tick's, a submission's, a
// snapshot rotation, the barrier in front of GET /v1/status — because a
// commit syncs the whole written prefix. That is one fsync per slot plus
// one per submission instead of one per busy node per slot. What it
// costs: a *machine* crash (a process kill keeps the page cache) can
// lose up to one slot of acknowledged confirms. Recovery and promotion
// requeue every in-flight lease, and an agent that meets an RM that
// does not know it drops its lease set, so to everything durable a lost
// confirm is the crash arriving just before that heartbeat did: the
// lease is requeued, the already-finished quantum runs again, delivered
// volume is still counted exactly once — the fate every quantum in
// flight at the crash already has. Grants computed from unsynced
// confirms are safe for the same reason the grants themselves are: the
// tick commit that releases them covers the confirms before it. The one
// read that could show an outsider state a crash would take back,
// GET /v1/status, commits the newest journaled record before answering
// (Server.syncedStatus); /metrics, drain progress and in-process
// Status() are advisory and never touch the disk.
//
// The leases a heartbeat dispatches are the second exception, and the
// only grants that leave the RM before their record is durable. When a
// heartbeat's confirms complete a job, the offers the last tick made to
// its successors become leases in that heartbeat (Server.Heartbeat); their
// grants are journaled directly behind the confirm record, as a tick
// record whose slot does not move — applyTickLocked replays it like any
// tick's grants — and wait for the same commit. The same three facts
// carry it. WAL order is mutation order and a commit syncs a prefix, so
// the grant record never survives without the confirm that made its job
// ready: after a crash the log holds both (recovery requeues the lease
// with every other one), the confirm alone, or neither. Recovery and
// promotion requeue every lease. And the recovered RM knows no node, so
// the node running a lost grant's quantum is refused whole — unknown_node,
// before any confirm it carries is looked at — until it has dropped its
// lease set and re-registered. What is new is that a lost grant's
// quantum ID comes back: the ID counter is recovered with the log, every
// ID a tick hands out is durable before it leaves, but a dispatched one
// is not, so the recovered RM reissues it — typically to the re-grant of
// the predecessor whose confirm was lost with it. That is harmless: the
// only holder of the ID's first life cannot speak until it holds nothing,
// and a confirm applies only to a live lease on the node that sends it,
// at most once, so even a delayed duplicate of the old heartbeat can at
// worst confirm early a quantum its own node is running — never deliver
// volume twice, never complete a job whose work no node was given.
//
// Under interval/never policies every one of these windows reopens by
// design — that is the policy's documented trade.
//
// Formats: a WAL payload is a tagged binary record — one tag byte per
// walRecord variant, varints, length-prefixed strings; quantum IDs as
// deltas, a tick's job and node IDs front-coded, its lease expiry stored
// once; a plan diff in internal/plan's binary diff codec; a
// submission's trace record in the coding its wire body uses
// (rmproto/submit.go). The tag table and every rule are in walcodec.go,
// the only file here that knows them; this file builds and applies
// walRecord values. `ftrm -wal-dump` prints a log as JSON lines (DumpWAL).
// That is the one journal form: a payload in the JSON form RMs before the
// codec wrote is refused, as are the forms before front-coded IDs
// (walcodec.go states why that is safe). Snapshots are JSON (snapState,
// version 3 only), as is the plan blob inside a snapshot or a rebase
// record.
package rmserver

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// snapVersion identifies the snapshot schema. Version 3 holds live state
// only — workflows with an unfinished job, unfinished ad-hoc jobs — beside
// the archive of completed jobs in completion order, and a plan of
// integers only. Version 2 was the same with θ levels in the plan and a
// journal of back-referenced tick IDs behind it; version 1 held every job
// ever admitted, flagged done or not. Both are refused, by name: nothing
// writes them, under the condition walcodec.go states for the journal.
const snapVersion = 3

// walRecord is the one-of union journaled per mutation. walcodec.go owns
// its on-disk form; the json tags serve `ftrm -wal-dump`.
type walRecord struct {
	Workflow   *recWorkflow   `json:"wf,omitempty"`
	AdHoc      *recAdHoc      `json:"adhoc,omitempty"`
	Tick       *recTick       `json:"tick,omitempty"`
	Confirm    *recConfirm    `json:"confirm,omitempty"`
	Requeue    *recRequeue    `json:"requeue,omitempty"`
	Epoch      *recEpoch      `json:"epoch,omitempty"`
	PlanDiff   *recPlanDiff   `json:"plan_diff,omitempty"`
	PlanRebase *recPlanRebase `json:"plan_rebase,omitempty"`
}

// recWorkflow journals one admitted workflow: the original trace record
// (for the DAG and job specs) plus everything admission computed — the
// re-anchored window and the per-job decomposed windows.
type recWorkflow struct {
	WF         trace.WorkflowRecord `json:"wf"`
	SubmitNS   int64                `json:"submit_ns"`
	DeadlineNS int64                `json:"deadline_ns"`
	Slot       int64                `json:"slot"`
	BestEffort bool                 `json:"best_effort,omitempty"`
	Windows    []recWindow          `json:"windows"`
}

type recWindow struct {
	ReleaseNS  int64 `json:"release_ns"`
	DeadlineNS int64 `json:"deadline_ns"`
	MinSlots   int64 `json:"min_slots"`
}

type recAdHoc struct {
	Job  trace.AdHocRecord `json:"job"`
	Slot int64             `json:"slot"`
}

// recTick journals one slot advance: the post-advance slot value, the
// leases reclaimed by eviction/expiry during the tick, the leases
// granted, and the authoritative fault counters at tick end.
type recTick struct {
	Slot     int64                 `json:"slot"`
	Requeued []string              `json:"requeued,omitempty"`
	Grants   []recGrant            `json:"grants,omitempty"`
	Faults   rmproto.FaultCounters `json:"faults"`
}

type recGrant struct {
	QID    string          `json:"qid"`
	JobID  string          `json:"job"`
	NodeID string          `json:"node"`
	Grant  resource.Vector `json:"grant"`
	Expiry int64           `json:"expiry,omitempty"`
}

// recConfirm journals the quanta one heartbeat actually confirmed.
type recConfirm struct {
	Slot   int64                 `json:"slot"`
	QIDs   []string              `json:"qids"`
	Faults rmproto.FaultCounters `json:"faults"`
}

// recRequeue journals leases reclaimed outside a tick (node
// re-registration).
type recRequeue struct {
	QIDs   []string              `json:"qids"`
	Faults rmproto.FaultCounters `json:"faults"`
}

// recEpoch journals a leadership-epoch claim: the first epoch of a
// fresh primary, or the incremented epoch of a promotion. The epoch is
// replicated state — shipping it is what fences a deposed primary's
// stream (see repl.go).
type recEpoch struct {
	Epoch int64 `json:"epoch"`
	Slot  int64 `json:"slot"`
}

// recPlanDiff journals one plan diff, on disk in the plan codec's wire
// form (internal/plan). The diff is the transaction: it either chained
// onto the live plan's revision and was applied whole, or it was never
// journaled — a torn record at the WAL tail is truncated at recovery
// and the plan stays at its pre-diff revision.
type recPlanDiff struct {
	Diff *plan.Diff `json:"diff"`
}

// recPlanRebase journals a wholesale live-plan replacement — the escape
// hatch when the diff chain breaks (see planstream.go) — on disk as the
// plan codec's JSON plan blob, the same one snapshots embed.
type recPlanRebase struct {
	Plan *plan.Plan `json:"plan"`
}

// snapState is the full-state snapshot payload.
type snapState struct {
	Version   int                   `json:"version"`
	SlotDurNS int64                 `json:"slot_dur_ns"`
	Slot      int64                 `json:"slot"`
	Epoch     int64                 `json:"epoch,omitempty"`
	NextQID   int64                 `json:"next_qid"`
	Faults    rmproto.FaultCounters `json:"faults"`
	Workflows []snapWorkflow        `json:"workflows,omitempty"`
	AdHoc     []snapJob             `json:"adhoc,omitempty"`
	Leases    []snapLease           `json:"leases,omitempty"`
	// Done is the archive of completed jobs, in completion order.
	Done []rmproto.JobStatus `json:"done,omitempty"`
	// Plan is the live plan in the strict plan codec's wire form; absent
	// when no plan revision has been applied.
	Plan json.RawMessage `json:"plan,omitempty"`
}

type snapWorkflow struct {
	WF         trace.WorkflowRecord `json:"wf"`
	SubmitNS   int64                `json:"submit_ns"`
	DeadlineNS int64                `json:"deadline_ns"`
	Jobs       []snapJob            `json:"jobs"` // in node-index order, completed ones included
}

type snapJob struct {
	ID          string          `json:"id"`
	Kind        int             `json:"kind"`
	JobName     string          `json:"job_name,omitempty"`
	NodeIdx     int             `json:"node_idx"`
	ArrivedNS   int64           `json:"arrived_ns"`
	ReleaseNS   int64           `json:"release_ns"`
	DeadlineNS  int64           `json:"deadline_ns"`
	Total       resource.Vector `json:"total"`
	Delivered   resource.Vector `json:"delivered"`
	InFlight    resource.Vector `json:"in_flight"`
	ParallelCap resource.Vector `json:"parallel_cap"`
	MinSlots    int64           `json:"min_slots"`
	BestEffort  bool            `json:"best_effort,omitempty"`
	Done        bool            `json:"done,omitempty"`
	DoneSlot    int64           `json:"done_slot,omitempty"`
}

type snapLease struct {
	QID    string          `json:"qid"`
	JobID  string          `json:"job"`
	NodeID string          `json:"node"`
	Grant  resource.Vector `json:"grant"`
	Issued int64           `json:"issued"`
	Expiry int64           `json:"expiry,omitempty"`
}

// journalLocked appends one record to the WAL, returning its commit
// handle (the zero handle with no store). Must be called with s.mu held
// so record order matches mutation order. The handle is also kept as
// s.journaled: committing the newest handle commits every record before
// it, which is how heartbeat confirms ride the tick's commit. A store
// that refuses the append is reported as ErrCommitFailed.
func (s *Server) journalLocked(rec walRecord) (store.Handle, error) {
	payload, err := s.encodeLocked(&rec)
	if err != nil {
		return store.Handle{}, err
	}
	return s.appendLocked(payload)
}

// encodeLocked returns rec's WAL payload — nil with no store — in the
// codec's buffer, valid until the next encode. A submission encodes its
// record before it changes anything and appends it (appendLocked) last, so
// a record the codec refuses is an error answer that leaves no job behind.
func (s *Server) encodeLocked(rec *walRecord) ([]byte, error) {
	if s.store == nil {
		return nil, nil
	}
	payload, err := s.codec.encode(rec)
	if err != nil {
		return nil, fmt.Errorf("rmserver: wal encode: %w", err)
	}
	return payload, nil
}

// appendLocked is journalLocked's second half: it appends a payload
// encodeLocked returned.
func (s *Server) appendLocked(payload []byte) (store.Handle, error) {
	if s.store == nil {
		return store.Handle{}, nil
	}
	h, err := s.store.Append(payload) // copies: the codec's buffer is free again
	if err != nil {
		return store.Handle{}, fmt.Errorf("rmserver: wal append: %w: %w", ErrCommitFailed, err)
	}
	s.journaled = h
	return h, nil
}

// commitRecord makes a journaled record — and every record journaled
// before it — durable per the store's fsync policy. Called WITHOUT s.mu
// so a slow fsync never blocks the control plane; concurrent committers
// group-commit. The handle is bound to its WAL segment, so committing is
// safe even if a snapshot rotation has since swapped in a fresh segment.
func (s *Server) commitRecord(h store.Handle) error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Commit(h); err != nil {
		// Wrap both the coded sentinel (for the HTTP layer's 503 +
		// commit_failed mapping) and the store's error (for diagnostics).
		return fmt.Errorf("rmserver: wal commit: %w: %w", ErrCommitFailed, err)
	}
	return nil
}

// recoverLocked rebuilds state from the store: restore the recovered
// snapshot, replay the WAL tail, then reclaim every in-flight lease —
// the node bindings died with the previous process, and the agents will
// re-register with empty hands. Replay is idempotent: duplicate
// submissions are skipped, grants are gated on the quantum-ID
// watermark, and confirms/requeues of unknown leases are no-ops.
func (s *Server) recoverLocked() error {
	start := time.Now()
	info := s.store.Recovery()
	rec := rmproto.RecoveryStatus{
		Performed:         true,
		WALTruncated:      info.Truncated,
		TruncatedBytes:    info.TruncatedBytes,
		StaleFilesRemoved: info.StaleFilesRemoved,
	}
	if snap := s.store.RecoveredSnapshot(); snap != nil {
		var st snapState
		if err := json.Unmarshal(snap, &st); err != nil {
			return fmt.Errorf("decode snapshot: %w", err)
		}
		if err := s.restoreSnapshotLocked(&st); err != nil {
			return err
		}
		rec.FromSnapshot = true
		rec.SnapshotSlot = st.Slot
	}
	for i, payload := range s.store.RecoveredRecords() {
		if err := s.applyRecordLocked(payload); err != nil {
			return fmt.Errorf("replay record %d/%d: %w", i+1, info.Records, err)
		}
		rec.RecordsReplayed++
	}
	// Orphan leases belong to the dead process's nodes — but only an
	// acting primary may requeue them. A follower must keep replaying
	// exactly the primary's stream; its leases are requeued at promotion.
	if !s.cfg.Follower {
		rec.OrphanLeasesRequeued = len(s.requeueAllLeasesLocked())
	}
	rec.Slot = s.slot
	rec.Micros = (time.Since(start) + info.Elapsed).Microseconds()
	s.recovery = &rec
	return nil
}

// requeueAllLeasesLocked reclaims every in-flight lease (recovery or
// promotion: no node the server trusts holds them anymore) in
// deterministic order, returning the reclaimed quantum IDs.
func (s *Server) requeueAllLeasesLocked() []string {
	if len(s.leases) == 0 {
		return nil
	}
	qids := make([]string, 0, len(s.leases))
	for qid := range s.leases {
		qids = append(qids, qid)
	}
	sort.Strings(qids)
	for _, qid := range qids {
		s.requeueLeaseLocked(s.leases[qid])
	}
	return qids
}

func (s *Server) restoreSnapshotLocked(st *snapState) error {
	switch st.Version {
	case snapVersion:
	case 2:
		return fmt.Errorf("snapshot version 2, the form with θ levels in its plan that predates front-coded journal IDs, which is no longer read (want %d)", snapVersion)
	case 1:
		return fmt.Errorf("snapshot version 1, the form that predates the completed-job archive, which is no longer read (want %d)", snapVersion)
	default:
		return fmt.Errorf("snapshot version %d, want %d", st.Version, snapVersion)
	}
	if got := time.Duration(st.SlotDurNS); got != s.cfg.SlotDur {
		return fmt.Errorf("state dir was written with slot=%v, server runs slot=%v", got, s.cfg.SlotDur)
	}
	s.slot = st.Slot
	if st.Epoch > s.epoch {
		s.epoch = st.Epoch
	}
	s.nextQID = st.NextQID
	s.faults = st.Faults
	for i := range st.Workflows {
		sw := &st.Workflows[i]
		wf, err := workflowFromRecord(sw.WF, sw.SubmitNS, sw.DeadlineNS)
		if err != nil {
			return fmt.Errorf("snapshot workflow %s: %w", sw.WF.ID, err)
		}
		ws := &wfState{wf: wf, jobs: make([]*rmJob, len(sw.Jobs))}
		for idx := range sw.Jobs {
			j := rmJobFromSnap(&sw.Jobs[idx], wf.ID)
			ws.jobs[idx] = j
			if !j.done {
				s.jobs[j.id] = j
				ws.live++
			}
		}
		s.wfs[wf.ID] = ws
	}
	for i := range st.AdHoc {
		j := rmJobFromSnap(&st.AdHoc[i], "")
		s.jobs[j.id] = j
	}
	for _, d := range st.Done {
		s.archiveLocked(d)
	}
	for _, sl := range st.Leases {
		j, ok := s.jobs[sl.JobID]
		if !ok {
			return fmt.Errorf("snapshot lease %s references unknown job %s", sl.QID, sl.JobID)
		}
		s.leases[sl.QID] = &lease{
			qid: sl.QID, job: j, nodeID: sl.NodeID,
			grant: sl.Grant, issued: sl.Issued, expiry: sl.Expiry,
		}
	}
	if len(st.Plan) > 0 {
		p, err := plan.DecodePlan(st.Plan)
		if err != nil {
			return fmt.Errorf("snapshot plan: %w", err)
		}
		s.livePlan = p
	}
	return nil
}

func rmJobFromSnap(sj *snapJob, wfID string) *rmJob {
	return &rmJob{
		id:          sj.ID,
		kind:        sched.JobKind(sj.Kind),
		wfID:        wfID,
		jobName:     sj.JobName,
		nodeIdx:     sj.NodeIdx,
		arrived:     time.Duration(sj.ArrivedNS),
		release:     time.Duration(sj.ReleaseNS),
		deadline:    time.Duration(sj.DeadlineNS),
		total:       sj.Total,
		delivered:   sj.Delivered,
		inFlight:    sj.InFlight,
		parallelCap: sj.ParallelCap,
		minSlots:    sj.MinSlots,
		bestEffort:  sj.BestEffort,
		done:        sj.Done,
		doneSlot:    sj.DoneSlot,
	}
}

func snapFromRMJob(j *rmJob) snapJob {
	return snapJob{
		ID:          j.id,
		Kind:        int(j.kind),
		JobName:     j.jobName,
		NodeIdx:     j.nodeIdx,
		ArrivedNS:   int64(j.arrived),
		ReleaseNS:   int64(j.release),
		DeadlineNS:  int64(j.deadline),
		Total:       j.total,
		Delivered:   j.delivered,
		InFlight:    j.inFlight,
		ParallelCap: j.parallelCap,
		MinSlots:    j.minSlots,
		BestEffort:  j.bestEffort,
		Done:        j.done,
		DoneSlot:    j.doneSlot,
	}
}

// workflowFromRecord rebuilds a workflow object from its trace record
// and re-anchors its window to the journaled nanosecond offsets (the
// record's whole-second fields cannot express sub-second slot clocks).
func workflowFromRecord(rec trace.WorkflowRecord, submitNS, deadlineNS int64) (*workflow.Workflow, error) {
	wf, err := rec.ToWorkflow()
	if err != nil {
		return nil, err
	}
	wf.Submit = time.Duration(submitNS)
	wf.Deadline = time.Duration(deadlineNS)
	return wf, nil
}

func (s *Server) applyRecordLocked(payload []byte) error {
	rec, err := s.codec.decode(payload)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	switch {
	case rec.Workflow != nil:
		return s.applyWorkflowLocked(rec.Workflow)
	case rec.AdHoc != nil:
		return s.applyAdHocLocked(rec.AdHoc)
	case rec.Tick != nil:
		s.applyTickLocked(rec.Tick)
	case rec.Confirm != nil:
		s.applyConfirmLocked(rec.Confirm)
	case rec.Requeue != nil:
		s.applyRequeueLocked(rec.Requeue)
	case rec.Epoch != nil:
		if rec.Epoch.Epoch > s.epoch {
			s.epoch = rec.Epoch.Epoch
		}
	case rec.PlanDiff != nil:
		return s.applyPlanDiffRecordLocked(rec.PlanDiff)
	case rec.PlanRebase != nil:
		s.applyPlanRebaseRecordLocked(rec.PlanRebase)
	}
	return nil
}

func (s *Server) applyWorkflowLocked(r *recWorkflow) error {
	if s.knownWorkflowLocked(r.WF.ID) {
		return nil // idempotent replay
	}
	if len(r.Windows) != len(r.WF.Jobs) {
		return fmt.Errorf("workflow %s: %d windows for %d jobs", r.WF.ID, len(r.Windows), len(r.WF.Jobs))
	}
	wf, err := workflowFromRecord(r.WF, r.SubmitNS, r.DeadlineNS)
	if err != nil {
		return fmt.Errorf("workflow %s: %w", r.WF.ID, err)
	}
	arrived := time.Duration(r.Slot) * s.cfg.SlotDur
	st := &wfState{wf: wf, jobs: make([]*rmJob, wf.NumJobs()), live: wf.NumJobs()}
	for i := 0; i < wf.NumJobs(); i++ {
		job := wf.Job(i)
		w := r.Windows[i]
		j := &rmJob{
			id:          fmt.Sprintf("%s/%s#%d", wf.ID, job.Name, i),
			kind:        sched.DeadlineJob,
			wfID:        wf.ID,
			jobName:     job.Name,
			nodeIdx:     i,
			arrived:     arrived,
			release:     time.Duration(w.ReleaseNS),
			deadline:    time.Duration(w.DeadlineNS),
			total:       job.Volume(s.cfg.SlotDur),
			parallelCap: job.ParallelCap(),
			minSlots:    w.MinSlots,
			bestEffort:  r.BestEffort,
		}
		st.jobs[i] = j
		s.jobs[j.id] = j
	}
	s.wfs[wf.ID] = st
	if r.BestEffort {
		s.faults.BestEffortAdmissions++
	}
	return nil
}

func (s *Server) applyAdHocLocked(r *recAdHoc) error {
	id := rmproto.AdHocJobID(r.Job.ID)
	if s.knownAdHocLocked(id) {
		return nil // idempotent replay
	}
	a, err := r.Job.ToAdHoc()
	if err != nil {
		return err
	}
	s.jobs[id] = &rmJob{
		id:          id,
		kind:        sched.AdHocJob,
		arrived:     time.Duration(r.Slot) * s.cfg.SlotDur,
		total:       a.Volume(s.cfg.SlotDur),
		parallelCap: a.ParallelCap(),
	}
	return nil
}

func (s *Server) applyTickLocked(r *recTick) {
	for _, qid := range r.Requeued {
		if l, ok := s.leases[qid]; ok {
			s.requeueLeaseLocked(l)
		}
	}
	for _, g := range r.Grants {
		n, own := rmproto.ParseQuantumID(g.QID)
		if !own || n <= s.nextQID {
			continue // already applied (prior replay pass or snapshot), or not an ID this server issues
		}
		j, ok := s.jobs[g.JobID]
		if !ok {
			continue
		}
		s.nextQID = n
		s.leases[g.QID] = &lease{
			qid: g.QID, job: j, nodeID: g.NodeID,
			grant: g.Grant, issued: r.Slot - 1, expiry: g.Expiry,
		}
		j.inFlight = j.inFlight.Add(g.Grant)
	}
	if r.Slot > s.slot {
		s.slot = r.Slot
	}
	s.faults = r.Faults
}

func (s *Server) applyConfirmLocked(r *recConfirm) {
	for _, qid := range r.QIDs {
		if l, ok := s.leases[qid]; ok {
			s.confirmLeaseLocked(l, r.Slot)
		}
	}
	s.faults = r.Faults
}

func (s *Server) applyRequeueLocked(r *recRequeue) {
	for _, qid := range r.QIDs {
		if l, ok := s.leases[qid]; ok {
			s.requeueLeaseLocked(l)
		}
	}
	s.faults = r.Faults
}

// snapshotLocked serializes the full RM state — live tables and the
// archive — deterministically (map iteration order must not leak into
// the payload).
func (s *Server) snapshotLocked() ([]byte, error) {
	st := snapState{
		Version:   snapVersion,
		SlotDurNS: int64(s.cfg.SlotDur),
		Slot:      s.slot,
		Epoch:     s.epoch,
		NextQID:   s.nextQID,
		Faults:    s.faults,
	}
	wfIDs := make([]string, 0, len(s.wfs))
	for id := range s.wfs {
		wfIDs = append(wfIDs, id)
	}
	sort.Strings(wfIDs)
	for _, id := range wfIDs {
		ws := s.wfs[id]
		rec, err := workflowToRecord(ws.wf)
		if err != nil {
			return nil, fmt.Errorf("snapshot workflow %s: %w", id, err)
		}
		sw := snapWorkflow{
			WF:         rec,
			SubmitNS:   int64(ws.wf.Submit),
			DeadlineNS: int64(ws.wf.Deadline),
			Jobs:       make([]snapJob, len(ws.jobs)),
		}
		for i, j := range ws.jobs {
			sw.Jobs[i] = snapFromRMJob(j)
		}
		st.Workflows = append(st.Workflows, sw)
	}
	jobIDs := make([]string, 0, len(s.jobs))
	for id, j := range s.jobs {
		if j.kind == sched.AdHocJob {
			jobIDs = append(jobIDs, id)
		}
	}
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		st.AdHoc = append(st.AdHoc, snapFromRMJob(s.jobs[id]))
	}
	st.Done = s.done
	qids := make([]string, 0, len(s.leases))
	for qid := range s.leases {
		qids = append(qids, qid)
	}
	sort.Strings(qids)
	for _, qid := range qids {
		l := s.leases[qid]
		st.Leases = append(st.Leases, snapLease{
			QID: l.qid, JobID: l.job.id, NodeID: l.nodeID,
			Grant: l.grant, Issued: l.issued, Expiry: l.expiry,
		})
	}
	if s.livePlan != nil && s.livePlan.Rev > 0 {
		payload, err := plan.EncodePlan(s.livePlan)
		if err != nil {
			return nil, fmt.Errorf("snapshot plan rev %d: %w", s.livePlan.Rev, err)
		}
		st.Plan = payload
	}
	return json.Marshal(&st)
}

// writeSnapshotLocked snapshots the full state and rotates the WAL.
// Holding s.mu across the disk write is deliberate: it guarantees no
// record lands in the outgoing segment after the state it captures,
// which rotation is about to delete.
func (s *Server) writeSnapshotLocked() error {
	if s.store == nil {
		return nil
	}
	payload, err := s.snapshotLocked()
	if err != nil {
		return fmt.Errorf("rmserver: snapshot: %w", err)
	}
	if err := s.store.WriteSnapshot(payload); err != nil {
		return fmt.Errorf("rmserver: snapshot: %w", err)
	}
	return nil
}

// WriteSnapshot persists a full-state snapshot and rotates the WAL, so
// a subsequent recovery replays only records appended after this call.
// A no-op without a store. The RM's run loop calls it on a cadence and
// after a completed drain.
func (s *Server) WriteSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshotLocked()
}

// workflowToRecord serializes a workflow back into its trace record.
func workflowToRecord(wf *workflow.Workflow) (trace.WorkflowRecord, error) {
	tr, err := trace.FromWorkload([]*workflow.Workflow{wf}, nil)
	if err != nil {
		return trace.WorkflowRecord{}, err
	}
	return tr.Workflows[0], nil
}
