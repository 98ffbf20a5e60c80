// Package rmserver implements a miniature YARN-like resource manager with
// a pluggable scheduler — the integration surface the paper used when it
// deployed FlowTime inside YARN's resource manager.
//
// Node managers register and heartbeat over HTTP/JSON (see
// internal/rmproto); clients submit deadline workflows and ad-hoc jobs in
// the trace schema. On every scheduling slot the RM invokes its
// sched.Scheduler over the live job set, converts grants into slot-sized
// work leases ("quanta"), and places them on nodes first-fit. Nodes
// execute leases for one slot and confirm them on the next heartbeat;
// confirmed volume drives job completion, workflow readiness, and
// deadline accounting.
//
// With a state store attached (Config.Store), every mutation is
// journaled to a write-ahead log and the full state is periodically
// snapshotted, so a crashed RM restarts with its jobs, workflows,
// decomposed windows, slot clock, and accounting intact; see persist.go
// for the durability model.
//
// The RM treats submitted estimates as ground truth (nodes "execute"
// whatever they are leased); estimation-error studies belong to the
// simulator, which models actual-versus-estimated divergence.
package rmserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// DefaultLeaseExpiry is the default per-lease confirmation budget in
// slots. Healthy nodes confirm a lease one slot after launch, so the
// default only fires on genuinely lost work (node crash, dropped
// heartbeat response, wedged node).
const DefaultLeaseExpiry = 16

// horizon is the planning horizon in slots the RM hands its scheduler.
const horizon = 100000

// Config parameterizes the resource manager.
type Config struct {
	// SlotDur is the scheduling slot; must be > 0.
	SlotDur time.Duration
	// Scheduler makes per-slot decisions; required.
	Scheduler sched.Scheduler
	// NodeExpiry evicts nodes that have not heartbeaten for this long;
	// zero disables expiry (manual-tick test setups). Evicting a node
	// requeues every lease it holds.
	NodeExpiry time.Duration
	// LeaseExpiry is the number of slots an issued lease may stay
	// unconfirmed before the RM reclaims it and returns its volume to the
	// job's remaining work. Zero means DefaultLeaseExpiry; New refuses a
	// negative value.
	LeaseExpiry int64
	// Store, when non-nil, makes the RM durable: New recovers the state
	// the store holds (latest snapshot plus WAL replay) and every
	// subsequent mutation is journaled. The server does not close the
	// store; the owner does, after the server stops. A store written
	// under one SlotDur cannot be recovered under another.
	Store *store.Store
	// Follower starts the server as a warm standby: it rejects mutations
	// with not_leader, ingests the primary's shipped log (see repl.go),
	// and serves read-only status. Requires Store. Promote() turns it
	// into the primary.
	Follower bool
	// LeaderURL is the redirect hint handed to rejected clients while
	// this server is a follower (typically the primary's URL).
	LeaderURL string
	// AdHocGate, when true, gates ad-hoc admission on the streamed
	// plan's leftover capacity (see adhocGate in planstream.go): a
	// submission whose demand does not fit in the live plan's slack is
	// rejected (Accepted=false) instead of queued. Requires a Scheduler
	// that implements sched.PlanStreamer with streaming enabled; until a
	// first plan revision exists, streamed or recovered, every ad-hoc
	// submission is rejected, because there is no leftover to admit
	// against.
	AdHocGate bool
}

// Server is the resource manager. Create with New. All methods are safe
// for concurrent use.
type Server struct {
	cfg   Config
	store *store.Store

	mu     sync.Mutex
	cond   *sync.Cond // signalled when the last outstanding lease clears
	slot   int64
	nodes  map[string]*node
	jobs   map[string]*rmJob   // live jobs: a job leaves when it completes
	wfs    map[string]*wfState // workflows with at least one live job
	leases map[string]*lease   // quantum ID -> in-flight lease
	// done archives every completed job as the wire entry Status reports
	// for it, in completion order. A completed job's status is final, so
	// the archive only grows by appending and no element is written
	// twice: a reader takes s.done[:n:n] under mu and reads it after
	// unlocking. doneMissed counts its missed entries; doneAdHoc and
	// doneWFs hold the IDs that must stay refused as duplicates. All of
	// it is derived state — the confirm records that complete jobs
	// determine it — so the WAL does not mention it and snapshots carry it.
	done       []rmproto.JobStatus
	doneMissed int
	doneAdHoc  map[string]struct{} // ad-hoc job IDs in done
	doneWFs    map[string]struct{} // workflow IDs with a job in done
	// instance names this process's archive to status readers holding a
	// cursor into it (rmproto.DoneJobs).
	instance string
	// changes numbers the status walks that found a live job's wire entry
	// different from the one the walk before built (statusLocked): a
	// reader that holds the live list as of change S is sent only the
	// jobs numbered above S (rmproto.QueryLiveAfter). Scoped like
	// instance: a number means nothing under another one.
	changes  int64
	nextQID  int64
	draining bool
	// offers are the grants the last tick's scheduler made to jobs that
	// were about to turn ready (sched.JobState.ReadyOnConfirm), in the
	// tick's job order. An offer is a decision, not a mutation: no lease,
	// no in-flight volume, nothing journaled. The heartbeat whose confirms
	// make its job ready turns it into leases (decideHandOff); the next
	// tick drops whatever is left. handoffs counts offers that became
	// leases, lapsed those that did not; both are per-process.
	offers           []offer
	handoffs, lapsed int64

	// faults counts what this process decided, where it decided it; like
	// handoffs and lapsed they are not journaled, and no apply function
	// touches them, so replay and a follower's ingest count nothing.
	faults   rmproto.FaultCounters
	recovery *rmproto.RecoveryStatus // non-nil after a store recovery
	// journaled is the handle of the newest WAL record this server
	// appended (see journalLocked); the zero handle until the first one.
	journaled store.Handle
	// codec encodes and decodes WAL payloads (walcodec.go); it owns the
	// encode buffer journalLocked reuses.
	codec walCodec

	// livePlan is the scheduler's streamed plan, reconstructed from
	// journaled diffs (see planstream.go). Nil until the first revision.
	livePlan *plan.Plan
	// gate is the ad-hoc admission gate; nil unless Config.AdHocGate is
	// set.
	gate *adhocGate

	// Replication (see repl.go). epoch is durable and replicated; role,
	// fenced, and leaderURL are process-local.
	role      Role
	epoch     int64
	fenced    bool
	leaderURL string
	repl      replState

	// gz compresses read-path responses for clients that ask (http.go).
	gz compressor
}

// node tracks one node manager. pending holds quanta queued for the next
// heartbeat; pendingPos indexes it by quantum ID so reclaiming a queued
// quantum (lease expiry racing launch) is O(1) instead of a scan.
// Reclaimed entries become tombstones (zero ID) and are skipped at
// flush. placed is the volume this slot's grants have put on the node, the
// tick's and the heartbeats' together, and heard whether the node has
// heartbeaten since that tick — it has then taken its queue for the slot,
// so nothing more may be placed on it; each tick resets both.
type node struct {
	id         string
	capacity   resource.Vector
	lastSeen   time.Time
	placed     resource.Vector
	heard      bool
	pending    []rmproto.Quantum
	pendingPos map[string]int
	dropped    int
}

// enqueue queues a quantum for the node's next heartbeat.
func (n *node) enqueue(q rmproto.Quantum) {
	if n.pendingPos == nil {
		n.pendingPos = make(map[string]int)
	}
	n.pendingPos[q.ID] = len(n.pending)
	n.pending = append(n.pending, q)
}

// dropPending removes one queued quantum by ID in O(1), reporting
// whether it was present.
func (n *node) dropPending(qid string) bool {
	i, ok := n.pendingPos[qid]
	if !ok {
		return false
	}
	n.pending[i] = rmproto.Quantum{}
	delete(n.pendingPos, qid)
	n.dropped++
	return true
}

// takePending flushes the queue for a heartbeat response, compacting
// out tombstones.
func (n *node) takePending() []rmproto.Quantum {
	out := n.pending
	if n.dropped > 0 {
		out = make([]rmproto.Quantum, 0, len(n.pending)-n.dropped)
		for _, q := range n.pending {
			if q.ID != "" {
				out = append(out, q)
			}
		}
	}
	n.pending, n.pendingPos, n.dropped = nil, nil, 0
	return out
}

// lease tracks one issued quantum: which job it advances, which node
// holds it, and when the RM gives up waiting for its confirmation. The
// server-level index makes confirmation O(1) and is what lets the RM
// reclaim work from dead nodes instead of stranding it.
type lease struct {
	qid    string
	job    *rmJob
	nodeID string
	grant  resource.Vector
	issued int64 // slot the lease was created
	expiry int64 // slot at which the lease is reclaimed
}

// offer is one scheduler grant to a job that could not take it yet.
type offer struct {
	job   *rmJob
	grant resource.Vector
}

type wfState struct {
	wf   *workflow.Workflow
	jobs []*rmJob // by node index, completed ones included
	live int      // jobs not yet completed
}

type rmJob struct {
	id      string
	kind    sched.JobKind
	wfID    string
	jobName string
	nodeIdx int

	arrived  time.Duration
	release  time.Duration
	deadline time.Duration

	total       resource.Vector // volume to deliver
	delivered   resource.Vector
	inFlight    resource.Vector
	parallelCap resource.Vector
	minSlots    int64
	bestEffort  bool

	done     bool
	doneSlot int64

	// reported is the wire entry the last status walk built for the job,
	// changed the change number (Server.changes) it was built under.
	reported rmproto.JobStatus
	changed  int64
}

// New returns a resource manager. With Config.Store set, New performs
// crash recovery before returning: the store's snapshot is restored,
// its WAL tail replayed, and every recovered in-flight lease requeued
// (their nodes died with the previous process). The recovery summary is
// reported in Status().Recovery.
func New(cfg Config) (*Server, error) {
	if cfg.SlotDur <= 0 {
		return nil, fmt.Errorf("rmserver: slot duration %v, want > 0", cfg.SlotDur)
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("rmserver: nil scheduler")
	}
	if cfg.LeaseExpiry < 0 {
		return nil, fmt.Errorf("rmserver: lease expiry %d, want >= 0 (0 = default %d)", cfg.LeaseExpiry, DefaultLeaseExpiry)
	}
	if cfg.LeaseExpiry == 0 {
		cfg.LeaseExpiry = DefaultLeaseExpiry
	}
	if cfg.Follower && cfg.Store == nil {
		return nil, errors.New("rmserver: follower mode requires a state store")
	}
	if cfg.AdHocGate {
		if _, ok := cfg.Scheduler.(sched.PlanStreamer); !ok {
			return nil, fmt.Errorf("rmserver: ad-hoc gate requires a plan-streaming scheduler, %s does not stream", cfg.Scheduler.Name())
		}
	}
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		nodes:     make(map[string]*node),
		jobs:      make(map[string]*rmJob),
		wfs:       make(map[string]*wfState),
		leases:    make(map[string]*lease),
		doneAdHoc: make(map[string]struct{}),
		doneWFs:   make(map[string]struct{}),
		instance:  newInstance(),
		role:      RolePrimary,
		leaderURL: cfg.LeaderURL,
	}
	if cfg.Follower {
		s.role = RoleFollower
	}
	if cfg.AdHocGate {
		s.gate = &adhocGate{}
	}
	s.cond = sync.NewCond(&s.mu)
	if s.store != nil {
		if err := s.recoverLocked(); err != nil {
			return nil, fmt.Errorf("rmserver: recover from %s: %w", s.store.Dir(), err)
		}
	}
	// A primary starting fresh claims epoch 1 and makes the claim durable
	// before granting anything; a recovered epoch is kept as-is. Followers
	// adopt the primary's epoch from the shipped stream.
	if s.role == RolePrimary && s.epoch == 0 {
		h, err := s.journalLocked(walRecord{Epoch: &recEpoch{Epoch: 1}})
		if err == nil {
			err = s.commitRecord(h)
		}
		if err != nil {
			return nil, fmt.Errorf("rmserver: journal initial epoch: %w", err)
		}
	}
	return s, nil
}

// newInstance draws an archive name: 16 hex digits, fixed-width so that
// status responses of equal content have equal size.
func newInstance() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// Recovery returns the summary of the crash recovery New performed, or
// nil when the server started without a store or from an empty one.
func (s *Server) Recovery() *rmproto.RecoveryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// RegisterNode adds or refreshes a node manager. Re-registering an ID the
// RM already tracks means the node restarted: any leases the previous
// incarnation held will never be confirmed, so they are requeued
// immediately rather than waiting for lease expiry.
func (s *Server) RegisterNode(req rmproto.RegisterNodeRequest, now time.Time) (rmproto.RegisterNodeResponse, error) {
	if req.NodeID == "" {
		return rmproto.RegisterNodeResponse{}, errors.New("rmserver: empty node ID")
	}
	if err := req.Capacity.Validate(); err != nil {
		return rmproto.RegisterNodeResponse{}, err
	}
	capV := req.Capacity.ToVector()
	if capV.IsZero() {
		return rmproto.RegisterNodeResponse{}, fmt.Errorf("rmserver: node %s has zero capacity", req.NodeID)
	}
	s.mu.Lock()
	if err := s.leaderCheckLocked(); err != nil {
		s.mu.Unlock()
		return rmproto.RegisterNodeResponse{}, err
	}
	var h store.Handle
	var jerr error
	if _, exists := s.nodes[req.NodeID]; exists {
		rec := s.decideRequeue(func(l *lease) bool { return l.nodeID == req.NodeID })
		if len(rec.QIDs) > 0 {
			h, jerr = s.requeueLocked(rec)
		}
	}
	s.nodes[req.NodeID] = &node{id: req.NodeID, capacity: capV, lastSeen: now}
	s.mu.Unlock()
	if jerr != nil {
		return rmproto.RegisterNodeResponse{}, jerr
	}
	if err := s.commitRecord(h); err != nil {
		return rmproto.RegisterNodeResponse{}, err
	}
	return rmproto.RegisterNodeResponse{HeartbeatMs: s.cfg.SlotDur.Milliseconds()}, nil
}

// Heartbeat processes a node's completion report and hands back queued
// work leases, in one critical section. An unknown node gets
// ErrUnknownNode so the agent knows to re-register instead of retrying
// a doomed heartbeat. Confirmations that apply are journaled before
// the reply but not fsynced by it: the record becomes durable with the
// next commit the RM makes anyway, typically the coming tick's (see
// "Durability ordering" in persist.go for why losing it to a machine
// crash is harmless). When the confirms complete a job, the offers the
// last tick made to its successors are dispatched here, in the same
// reply where this node has room: their grants are journaled after the
// confirm record as a tick record that does not advance the slot, and
// ride the same commit. Every other quantum handed back was queued by a
// tick once everything journaled before that tick was durable; the tick's
// own record may still be waiting for the next commit. A store that
// refuses an append fails the heartbeat with ErrCommitFailed and hands
// out nothing.
func (s *Server) Heartbeat(req rmproto.HeartbeatRequest, now time.Time) (rmproto.HeartbeatResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.leaderCheckLocked(); err != nil {
		return rmproto.HeartbeatResponse{}, err
	}
	n, ok := s.nodes[req.NodeID]
	if !ok {
		return rmproto.HeartbeatResponse{}, fmt.Errorf("%w %q (register first)", ErrUnknownNode, req.NodeID)
	}
	n.lastSeen = now
	n.heard = true
	completed := len(s.done)
	rec, stale := s.decideConfirm(req.NodeID, req.Completed)
	s.faults.StaleConfirms += stale
	if len(rec.QIDs) > 0 {
		if _, err := s.journalLocked(walRecord{Confirm: rec}); err != nil {
			return rmproto.HeartbeatResponse{}, err
		}
	}
	if len(s.done) > completed && len(s.offers) > 0 && !s.draining {
		if rec := s.decideHandOff(n); len(rec.Grants) > 0 {
			if _, err := s.journalLocked(walRecord{Tick: rec}); err != nil {
				return rmproto.HeartbeatResponse{}, err
			}
			for _, g := range rec.Grants {
				s.nodes[g.NodeID].enqueue(g.quantum())
			}
		}
	}
	return rmproto.HeartbeatResponse{Launch: n.takePending()}, nil
}

// decideConfirm decides what a heartbeat's confirms do, changing nothing:
// each quantum it names that is a live lease of the sending node is
// confirmed, once, at the current slot. Any other — already confirmed,
// requeued after the node's eviction, from before an RM restart, or held
// by another node — is stale and ignored, so a re-registering node can
// never double-deliver stale work; stale counts them.
func (s *Server) decideConfirm(nodeID string, qids []string) (rec *recConfirm, stale int64) {
	rec = &recConfirm{Slot: s.slot}
	seen := make(map[string]bool, len(qids))
	for _, qid := range qids {
		if l, ok := s.leases[qid]; ok && l.nodeID == nodeID && !seen[qid] {
			seen[qid] = true
			rec.QIDs = append(rec.QIDs, qid)
		} else {
			stale++
		}
	}
	return rec, stale
}

// decideHandOff decides which offers the heartbeat of node from dispatches:
// those whose job is ready now, placed first-fit on the heartbeating node,
// whose reply carries them, then on the nodes that have not heartbeaten
// since the tick and will still fetch their queue for this slot. The
// grants are the ones the tick would have made had the job been ready one
// request earlier — issued at the tick's slot, expiring with its grants —
// in a tick record that does not advance the slot. An offer is spent by
// one attempt: what found no room lapses, the job is ready for the next
// tick.
func (s *Server) decideHandOff(from *node) *recTick {
	rec := &recTick{Slot: s.slot}
	var targets []*node
	kept := s.offers[:0]
	for _, o := range s.offers {
		if !s.readyLocked(o.job) {
			kept = append(kept, o)
			continue
		}
		if targets == nil {
			targets = []*node{from}
			for _, n := range s.nodesByIDLocked() {
				if !n.heard {
					targets = append(targets, n)
				}
			}
		}
		placed := len(rec.Grants)
		s.placeLocked(o.job.id, o.grant, targets, rec)
		if len(rec.Grants) > placed {
			s.handoffs++
		} else {
			s.lapsed++
		}
	}
	s.offers = kept
	return rec
}

// HandOffs reports how many of the scheduler's offers this process turned
// into leases on a confirming heartbeat, and how many lapsed: the job was
// not ready before the next tick, or no eligible node had room.
func (s *Server) HandOffs() (dispatched, lapsed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handoffs, s.lapsed
}

// archiveLocked appends one completed job's final status to the archive.
func (s *Server) archiveLocked(st rmproto.JobStatus) {
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

// knownWorkflowLocked and knownAdHocLocked report whether an ID was ever
// admitted, live or completed: submissions refuse it, WAL replay skips it.
func (s *Server) knownWorkflowLocked(id string) bool {
	_, live := s.wfs[id]
	_, done := s.doneWFs[id]
	return live || done
}

func (s *Server) knownAdHocLocked(id string) bool {
	_, live := s.jobs[id]
	_, done := s.doneAdHoc[id]
	return live || done
}

// decideRequeue decides the requeue of the leases keep selects, changing
// nothing: their IDs in ID order — the leases are a map, and the same run
// must journal the same bytes.
func (s *Server) decideRequeue(keep func(*lease) bool) *recRequeue {
	rec := &recRequeue{}
	for qid, l := range s.leases {
		if keep(l) {
			rec.QIDs = append(rec.QIDs, qid)
		}
	}
	sort.Strings(rec.QIDs)
	return rec
}

// requeueLocked journals a decided requeue and, once it applied, counts
// its quanta as this process's requeues.
func (s *Server) requeueLocked(rec *recRequeue) (store.Handle, error) {
	h, err := s.journalLocked(walRecord{Requeue: rec})
	if applied(err) {
		s.faults.RequeuedQuanta += int64(len(rec.QIDs))
	}
	return h, err
}

// anyLease selects every lease: recovery and promotion requeue them all,
// because no node the server trusts holds them any more.
func anyLease(*lease) bool { return true }

// SubmitWorkflow accepts a deadline workflow. The submit time is the
// current slot; the workflow's own submit offset is ignored in the live
// RM (clients submit when they want the workflow to start). Decomposition
// happens immediately against current cluster capacity, so at least one
// node must be registered. The admission — including its decomposed
// windows — is one journal record, applied and journaled under one lock
// and made durable before the acceptance is returned, so an acknowledged
// workflow survives an RM crash.
func (s *Server) SubmitWorkflow(req rmproto.SubmitWorkflowRequest) (rmproto.SubmitResponse, error) {
	wf, err := req.Workflow.ToWorkflow()
	if err != nil {
		return rmproto.SubmitResponse{}, err
	}

	resp, h, err := s.admitWorkflow(req.Workflow, wf)
	if err != nil {
		return rmproto.SubmitResponse{}, err
	}
	if err := s.commitRecord(h); err != nil {
		// The workflow is admitted in memory but its journal record may
		// not be durable; surface the store failure to the client.
		return rmproto.SubmitResponse{}, err
	}
	return resp, nil
}

func (s *Server) admitWorkflow(rec trace.WorkflowRecord, wf *workflow.Workflow) (rmproto.SubmitResponse, store.Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.leaderCheckLocked(); err != nil {
		return rmproto.SubmitResponse{}, store.Handle{}, err
	}
	if s.knownWorkflowLocked(wf.ID) {
		return rmproto.SubmitResponse{}, store.Handle{}, fmt.Errorf("rmserver: duplicate workflow %q", wf.ID)
	}
	capacity := s.totalCapacityLocked()
	if capacity.IsZero() {
		return rmproto.SubmitResponse{}, store.Handle{}, errors.New("rmserver: no registered nodes; cannot decompose deadlines")
	}

	// Re-anchor the workflow window at the current slot.
	now := time.Duration(s.slot) * s.cfg.SlotDur
	span := wf.Deadline - wf.Submit
	wf.Submit = now
	wf.Deadline = now + span
	if err := wf.Validate(); err != nil {
		return rmproto.SubmitResponse{}, store.Handle{}, err
	}

	// Admission control: try the deadline decomposition, then the
	// critical-path fallback; a workflow infeasible under both is admitted
	// best-effort — every job gets the whole workflow span as its window
	// and planners exclude it from the joint LP — instead of rejected.
	opts := deadline.Options{Slot: s.cfg.SlotDur, ClusterCap: capacity}
	dec, derr := deadline.Decompose(wf, opts)
	if derr != nil {
		opts.ForceCriticalPath = true
		dec, derr = deadline.Decompose(wf, opts)
	}
	bestEffort := derr != nil

	// The admission is its journal record, encoded before anything
	// changes and applied the way replay applies it: what a recovered RM
	// rebuilds is what this one holds.
	wrec := recWorkflow{
		WF:         rec,
		SubmitNS:   int64(wf.Submit),
		DeadlineNS: int64(wf.Deadline),
		Slot:       s.slot,
		BestEffort: bestEffort,
		Windows:    make([]recWindow, wf.NumJobs()),
	}
	for i := range wrec.Windows {
		release, dl := wf.Submit, wf.Deadline
		if !bestEffort {
			release, dl = dec.Windows[i].Release, dec.Windows[i].Deadline
		}
		wrec.Windows[i] = recWindow{
			ReleaseNS:  int64(release),
			DeadlineNS: int64(dl),
			MinSlots:   wf.Job(i).MinRuntimeSlots(s.cfg.SlotDur, capacity),
		}
	}
	h, err := s.journalLocked(walRecord{Workflow: &wrec})
	if bestEffort && applied(err) {
		s.faults.BestEffortAdmissions++
	}
	if err != nil {
		return rmproto.SubmitResponse{}, store.Handle{}, err
	}
	return rmproto.SubmitResponse{Accepted: true, ID: wf.ID, BestEffort: bestEffort}, h, nil
}

// SubmitAdHoc accepts an ad-hoc job, effective immediately. Like
// workflows, the admission is journaled and made durable before the
// acceptance is returned.
func (s *Server) SubmitAdHoc(req rmproto.SubmitAdHocRequest) (rmproto.SubmitResponse, error) {
	a, err := req.Job.ToAdHoc()
	if err != nil {
		return rmproto.SubmitResponse{}, err
	}
	s.mu.Lock()
	if err := s.leaderCheckLocked(); err != nil {
		s.mu.Unlock()
		return rmproto.SubmitResponse{}, err
	}
	id := rmproto.AdHocJobID(a.ID)
	if s.knownAdHocLocked(id) {
		s.mu.Unlock()
		return rmproto.SubmitResponse{}, fmt.Errorf("rmserver: duplicate ad-hoc job %q", a.ID)
	}
	// As for a workflow, the admission is its journal record, encoded
	// before anything changes — the gate's charge included — and applied
	// the way replay applies it.
	arec := recAdHoc{Job: req.Job, Slot: s.slot}
	payload, err := s.encodeLocked(&walRecord{AdHoc: &arec})
	if err != nil {
		s.mu.Unlock()
		return rmproto.SubmitResponse{}, err
	}
	// The admission gate charges the job's volume against the live plan's
	// leftover. A rejection journals nothing and changes no job.
	if s.gate != nil && !s.admitAdHocLocked(a.Volume(s.cfg.SlotDur), a.ParallelCap()) {
		s.mu.Unlock()
		return rmproto.SubmitResponse{Accepted: false, ID: id}, nil
	}
	err = s.applyAdHocLocked(&arec)
	var h store.Handle
	if err == nil {
		h, err = s.appendLocked(payload)
	}
	s.mu.Unlock()
	if err == nil {
		err = s.commitRecord(h)
	}
	if err != nil {
		return rmproto.SubmitResponse{}, err
	}
	return rmproto.SubmitResponse{Accepted: true, ID: id}, nil
}

// Tick advances one scheduling slot at wall-clock now. decideTick decides
// it — silent nodes expired, their leases and those past their
// confirmation deadline reclaimed, the scheduler invoked over the live job
// set, its grants placed on the other nodes first-fit — journaling the
// decision applies it, the expired nodes are forgotten, and the quanta it
// granted are queued on their nodes; what
// the scheduler granted a job that turns ready inside the slot is kept as
// an offer for the heartbeat that confirms its predecessors (see
// Heartbeat). It is called by the RM's run loop every SlotDur, or manually
// in tests and by the /v1/tick endpoint. A panicking scheduler is
// converted into a no-grant slot: jobs stay queued, state stays
// consistent, and the RM keeps running. Each tick — slot advance,
// reclaimed leases, issued grants — is journaled as one WAL record,
// followed by the plan diffs of its replan. Before its grants become
// fetchable by heartbeats and its offers claimable, the tick commits what
// was journaled before it, so the confirms those grants were computed from
// are durable first. Its own records ride the next commit, like a
// hand-off's ("Durability ordering" in persist.go says why a machine crash
// that takes them back is harmless): a tick that has to wait syncs them in
// the same fsync, and one whose slot a submission or a status barrier
// already committed does no I/O. The reply to POST /v1/tick thus
// acknowledges the advance, not its durability. A tick whose commit fails
// returns ErrCommitFailed and hands out nothing; its leases stay with the
// RM until lease expiry or recovery reclaims them.
func (s *Server) Tick(now time.Time) error {
	s.mu.Lock()
	if err := s.leaderCheckLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	h := s.journaled // everything the tick's grants were computed from
	rec, expired, offers, err := s.decideTick(now)
	_, jerr := s.journalLocked(walRecord{Tick: rec})
	if s.slot == rec.Slot {
		// The record applied, requeuing the silent nodes' leases: forget
		// the nodes and count both. A record the codec refused leaves them,
		// leases and all.
		for _, id := range expired {
			delete(s.nodes, id)
		}
		s.faults.ExpiredNodes += int64(len(expired))
		s.faults.RequeuedQuanta += int64(len(rec.Requeued))
	}
	// Drain and journal the plan diffs this tick's replan emitted.
	if serr := s.streamPlansLocked(); serr != nil && err == nil {
		err = serr
	}
	s.mu.Unlock()
	if jerr == nil {
		jerr = s.commitRecord(h)
	}
	if jerr != nil {
		return jerr
	}
	// Enqueue the quanta read off the record's grants and arm the slot's
	// offers now that what came before the tick is durable. A lease may
	// have been reclaimed while the commit ran — node re-registration runs
	// concurrently — so deliver only quanta whose lease is still live on a
	// node the RM still tracks; offers are this slot's or nobody's.
	if len(rec.Grants) > 0 || len(offers) > 0 {
		s.mu.Lock()
		for _, g := range rec.Grants {
			if _, live := s.leases[g.QID]; !live {
				continue
			}
			if n, ok := s.nodes[g.NodeID]; ok {
				n.enqueue(g.quantum())
			}
		}
		if s.slot == rec.Slot {
			s.offers = offers
		} else {
			s.lapsed += int64(len(offers))
		}
		s.mu.Unlock()
	}
	return err
}

// decideTick decides one slot and changes nothing replay rebuilds: its
// record names the next slot, the leases to requeue and the grants to
// ready jobs, and applying it is what advances the RM. now is the only
// clock it reads: the nodes silent for longer than NodeExpiry are returned
// as expired, for Tick to forget once the record applied (nodes are soft
// state); their leases are requeued with those past their expiry, and they
// get no grants. The scheduler sees in-flight volume net of those
// requeues. Its grants to jobs ready on confirm come back as offers,
// clamped by what the ready jobs left of the cluster.
func (s *Server) decideTick(now time.Time) (rec *recTick, expired []string, offers []offer, err error) {
	// The previous slot is over: its unclaimed offers lapse.
	s.lapsed += int64(len(s.offers))
	s.offers = nil

	if s.cfg.NodeExpiry > 0 {
		for id, n := range s.nodes {
			if now.Sub(n.lastSeen) > s.cfg.NodeExpiry {
				expired = append(expired, id)
			}
		}
	}
	rec = &recTick{Slot: s.slot + 1}
	rec.Requeued = s.decideRequeue(func(l *lease) bool {
		return slices.Contains(expired, l.nodeID) || s.slot >= l.expiry
	}).QIDs
	if s.draining {
		// Drain: no new leases; keep ticking so expiry still reclaims
		// whatever dead nodes hold.
		return rec, expired, nil, nil
	}
	nodes := slices.DeleteFunc(s.nodesByIDLocked(), func(n *node) bool { return slices.Contains(expired, n.id) })
	var capacity resource.Vector
	for _, n := range nodes {
		capacity = capacity.Add(n.capacity)
	}
	if capacity.IsZero() {
		return rec, expired, nil, nil
	}

	var back map[*rmJob]resource.Vector
	if len(rec.Requeued) > 0 {
		back = make(map[*rmJob]resource.Vector)
		for _, qid := range rec.Requeued {
			l := s.leases[qid]
			back[l.job] = back[l.job].Add(l.grant)
		}
	}
	inFlight := func(j *rmJob) resource.Vector { return j.inFlight.SubClamped(back[j]) }
	states := make([]sched.JobState, 0, len(s.jobs))
	for _, j := range s.jobs {
		remaining := j.total.SubClamped(j.delivered).SubClamped(inFlight(j))
		st := sched.JobState{
			ID:         j.id,
			Kind:       j.kind,
			Arrived:    j.arrived,
			Ready:      s.readyLocked(j),
			Request:    j.parallelCap.Min(remaining),
			BestEffort: j.bestEffort,
		}
		if j.kind == sched.DeadlineJob {
			st.ReadyOnConfirm = !st.Ready && s.readyOnConfirmLocked(j, inFlight)
			st.WorkflowID = j.wfID
			st.JobName = j.jobName
			st.Release = j.release
			st.Deadline = j.deadline
			st.EstRemaining = remaining
			st.ParallelCap = j.parallelCap
			st.MinSlots = j.minSlots
		}
		states = append(states, st)
	}
	sort.Slice(states, func(a, b int) bool {
		if states[a].Arrived != states[b].Arrived {
			return states[a].Arrived < states[b].Arrived
		}
		return states[a].ID < states[b].ID
	})

	grants, err := s.safeAssign(sched.AssignContext{
		Now:     s.slot,
		Changed: true, // schedulers with staleness detection replan as needed
		Jobs:    states,
		Cluster: sched.ClusterView{
			SlotDur: s.cfg.SlotDur,
			Horizon: horizon,
			CapAt:   func(int64) resource.Vector { return capacity },
		},
	})
	if err != nil {
		return rec, expired, nil, fmt.Errorf("rmserver: scheduler: %w", err)
	}

	// Place the ready jobs' grants on nodes first-fit, splitting across
	// nodes as needed; a grant to a job that is ready on confirm is kept as
	// an offer, clamped by what the ready jobs left.
	for _, n := range nodes {
		n.placed, n.heard = resource.Vector{}, false
	}
	capLeft := capacity
	for _, st := range states {
		g, ok := grants[st.ID]
		if !ok || !(st.Ready || st.ReadyOnConfirm) {
			continue
		}
		g = g.Min(st.Request)
		if !st.Ready {
			offers = append(offers, offer{job: s.jobs[st.ID], grant: g})
			continue
		}
		g = g.Min(capLeft)
		if g.IsZero() || g.AnyNegative() {
			continue
		}
		capLeft = capLeft.Sub(g)
		s.placeLocked(st.ID, g, nodes, rec)
	}
	kept := offers[:0]
	for _, o := range offers {
		o.grant = o.grant.Min(capLeft)
		if o.grant.IsZero() || o.grant.AnyNegative() {
			continue
		}
		capLeft = capLeft.Sub(o.grant)
		kept = append(kept, o)
	}
	return rec, expired, kept, nil
}

// nodesByIDLocked returns the registered nodes in ID order, the order
// first-fit placement walks them in.
func (s *Server) nodesByIDLocked() []*node {
	nodes := make([]*node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].id < nodes[b].id })
	return nodes
}

// placeLocked splits a grant into grants of rec: g for job, first-fit over
// nodes in the order given, against what each node has left of its
// capacity this slot (node.placed, which it debits). Each chunk is granted
// under the next quantum ID, issued in the slot before rec's and expiring
// LeaseExpiry slots after it; applying rec makes it a lease. What fits
// nowhere is dropped.
func (s *Server) placeLocked(job string, g resource.Vector, nodes []*node, rec *recTick) {
	expiry := rec.Slot - 1 + s.cfg.LeaseExpiry
	for _, n := range nodes {
		if g.IsZero() {
			break
		}
		chunk := g.Min(n.capacity.Sub(n.placed))
		if chunk.IsZero() {
			continue
		}
		n.placed = n.placed.Add(chunk)
		g = g.Sub(chunk)
		qid := rmproto.QuantumID(s.nextQID + int64(len(rec.Grants)) + 1)
		rec.Grants = append(rec.Grants, recGrant{QID: qid, JobID: job, NodeID: n.id, Grant: chunk, Expiry: expiry})
	}
}

// safeAssign invokes the scheduler with panic isolation: a panic becomes
// an error and a bump of the scheduler-panic counter instead of an RM
// crash. A tick is decided before anything changes, so a panic cannot
// leave the server state half-advanced.
func (s *Server) safeAssign(ctx sched.AssignContext) (grants map[string]resource.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.faults.SchedulerPanics++
			grants, err = nil, fmt.Errorf("scheduler %q panicked: %v (no grants this slot)", s.cfg.Scheduler.Name(), r)
		}
	}()
	return s.cfg.Scheduler.Assign(ctx)
}

func (s *Server) readyLocked(j *rmJob) bool {
	if j.kind != sched.DeadlineJob {
		return true
	}
	st := s.wfs[j.wfID]
	for _, p := range st.wf.DAG().Predecessors(j.nodeIdx) {
		if !st.jobs[p].done {
			return false
		}
	}
	return true
}

// readyOnConfirmLocked reports, for a deadline job that is not ready,
// whether it will be once the leases in flight are confirmed: every
// unfinished predecessor has its whole remainder in flight, as inFlight
// counts it.
func (s *Server) readyOnConfirmLocked(j *rmJob, inFlight func(*rmJob) resource.Vector) bool {
	st := s.wfs[j.wfID]
	for _, p := range st.wf.DAG().Predecessors(j.nodeIdx) {
		if pj := st.jobs[p]; !pj.done && !pj.total.FitsIn(pj.delivered.Add(inFlight(pj))) {
			return false
		}
	}
	return true
}

func (s *Server) totalCapacityLocked() resource.Vector {
	var total resource.Vector
	for _, n := range s.nodes {
		total = total.Add(n.capacity)
	}
	return total
}

// Status snapshots the cluster as the process sees it, without touching
// the disk: confirms and slot advances journaled since the last commit are
// in it although a machine crash would still take them back. In-process
// callers read this; GET /v1/status answers syncedStatus. The lock is
// held for the live jobs only: the completed ones are merged in after it
// is released.
func (s *Server) Status() rmproto.StatusResponse {
	s.mu.Lock()
	resp := s.statusLocked(true, 0)
	s.mu.Unlock()
	resp.Fold(resp.Done.Jobs)
	return resp
}

// statusCursor is what a GET /v1/status reader already holds: the
// archive up to index doneAfter and the live list as of change number
// liveAfter, both of the RM process named instance.
type statusCursor struct {
	instance  string
	doneAfter int
	liveAfter int64
}

// syncedStatus is what GET /v1/status sends: the status behind a
// durability barrier — it commits the newest journaled record before
// returning, so nothing it reports can be undone by a crash. That is no
// I/O when nothing was journaled since the last commit, and at most one
// fsync otherwise. A failed barrier does not fail the read — the operator
// needs the status most when the disk is failing — it is reported in
// Durability.CommitError. The response is left unfolded, and what the
// reader already holds is left out: the completed jobs before index
// doneAfter of the archive (rmproto.DoneJobs) and the live jobs whose
// entry has not changed since change liveAfter (rmproto.QueryLiveAfter).
// A cursor this server cannot honour — another instance, a number past
// its own — is answered from 0: every completed job, every live one.
func (s *Server) syncedStatus(cur statusCursor) rmproto.StatusResponse {
	s.mu.Lock()
	if cur.instance != s.instance || cur.liveAfter > s.changes {
		cur.liveAfter = 0
	}
	resp := s.statusLocked(true, cur.liveAfter)
	h := s.journaled
	s.mu.Unlock()
	if err := s.commitRecord(h); err != nil {
		resp.Durability.CommitError = err.Error()
	}
	if d := resp.Done; cur.instance == d.Instance && cur.doneAfter <= d.Total {
		d.From, d.Jobs = cur.doneAfter, d.Jobs[cur.doneAfter:]
	}
	return resp
}

// jobStatusLocked is the wire entry of one job as of the current slot;
// for a completed job it no longer depends on the slot.
func (s *Server) jobStatusLocked(j *rmJob) rmproto.JobStatus {
	st := rmproto.JobStatus{
		ID:         j.id,
		Kind:       j.kind.String(),
		WorkflowID: j.wfID,
		Delivered:  rmproto.FromVector(j.delivered),
		Total:      rmproto.FromVector(j.total),
	}
	switch {
	case j.done:
		st.State = "completed"
		st.CompletedSec = int64((time.Duration(j.doneSlot) * s.cfg.SlotDur) / time.Second)
	case !j.delivered.IsZero() || !j.inFlight.IsZero():
		st.State = "running"
	default:
		st.State = "pending"
	}
	if j.kind == sched.DeadlineJob {
		st.DeadlineSec = int64(j.deadline / time.Second)
		st.Missed = missedDeadline(j.deadline, j.done, j.doneSlot, s.slot, s.cfg.SlotDur)
		st.BestEffort = j.bestEffort
	}
	return st
}

// statusLocked reports everything but the jobs themselves in O(live
// jobs): Summary and LiveChange always, and with listJobs the live jobs
// changed after change number liveAfter, sorted by ID, in Jobs and the
// whole archive, unmerged, in Done. Its walk is where a live job's change
// is detected: a wire entry that differs from the one the previous walk
// built is stored under the next change number. Admission, placement,
// confirms, requeues, the slot passing a deadline, replay and follower
// ingest all move a job's entry without having to say so.
func (s *Server) statusLocked(listJobs bool, liveAfter int64) rmproto.StatusResponse {
	resp := rmproto.StatusResponse{
		Slot:              s.slot,
		Nodes:             len(s.nodes),
		Capacity:          rmproto.FromVector(s.totalCapacityLocked()),
		Draining:          s.draining,
		OutstandingLeases: len(s.leases),
		Faults:            s.faults,
		Recovery:          s.recovery,
		Summary:           rmproto.JobSummary{Completed: len(s.done), Missed: s.doneMissed},
	}
	if listJobs {
		resp.Jobs = make([]rmproto.JobStatus, 0, len(s.jobs))
	}
	stamp := s.changes + 1
	for _, j := range s.jobs {
		st := s.jobStatusLocked(j)
		if st != j.reported {
			j.reported, j.changed, s.changes = st, stamp, stamp
		}
		if st.State == "running" {
			resp.Summary.Running++
		} else {
			resp.Summary.Pending++
		}
		if st.Missed {
			resp.Summary.Missed++
		}
		if listJobs && j.changed > liveAfter {
			resp.Jobs = append(resp.Jobs, st)
		}
	}
	resp.LiveChange = s.changes
	if listJobs {
		sort.Slice(resp.Jobs, func(a, b int) bool { return resp.Jobs[a].ID < resp.Jobs[b].ID })
		n := len(s.done)
		resp.Done = &rmproto.DoneJobs{Instance: s.instance, Total: n, Jobs: s.done[:n:n]}
	}
	if _, ok := s.cfg.Scheduler.(sched.PlanStreamer); ok || s.livePlan != nil {
		lp := s.livePlanLocked()
		p := &rmproto.PlanStatus{
			Rev:          lp.Rev,
			From:         lp.From,
			NSlots:       lp.NSlots,
			Jobs:         len(lp.Jobs),
			DiffsApplied: s.faults.PlanDiffsApplied,
			Rebases:      s.faults.PlanRebases,
		}
		if g := s.gate; g != nil {
			p.AdHoc = &rmproto.AdHocQueueStatus{
				Admitted: g.admitted,
				Rejected: g.rejected,
				Rebases:  g.rebases,
				Rev:      g.rev(),
			}
		}
		resp.Plan = p
	}
	if dr, ok := s.cfg.Scheduler.(sched.DegradationReporter); ok {
		d := dr.Degradation()
		resp.Degradation = &rmproto.DegradationStatus{
			Level:           d.Level.String(),
			LevelCode:       int(d.Level),
			Reason:          d.Reason,
			MinMaxFallbacks: d.MinMaxFallbacks,
			GreedyFallbacks: d.GreedyFallbacks,
			InvalidPlans:    d.InvalidPlans,
			LPWarmStarts:    d.LPWarmStarts,
			LPColdStarts:    d.LPColdStarts,
		}
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Durability = &rmproto.DurabilityStatus{
			FsyncPolicy:       s.store.Policy().String(),
			Generation:        st.Generation,
			WALRecords:        st.WALRecords,
			WALBytes:          st.WALBytes,
			Fsyncs:            st.Fsyncs,
			FsyncTotalMicros:  st.FsyncTotal.Microseconds(),
			FsyncMaxMicros:    st.FsyncMax.Microseconds(),
			Snapshots:         st.Snapshots,
			LastSnapshotBytes: st.LastSnapLen,

			WALUnsyncedRecords: st.Unsynced,
		}
	}
	if s.store != nil {
		wm := s.store.Watermark()
		r := &rmproto.ReplicationStatus{
			Role:      s.role.String(),
			RoleCode:  int(s.role),
			Epoch:     s.epoch,
			Fenced:    s.fenced,
			LeaderURL: s.leaderURL,
			Watermark: rmproto.ReplWatermark{Gen: wm.Gen, Records: wm.Records, Bytes: wm.Bytes},
		}
		if s.repl.hasFollower {
			f := s.repl.followerWM
			r.FollowerSeen = true
			r.FollowerWatermark = rmproto.ReplWatermark{Gen: f.Gen, Records: f.Records, Bytes: f.Bytes}
			if f.Gen == wm.Gen {
				r.LagRecords = wm.Records - f.Records
				r.LagBytes = wm.Bytes - f.Bytes
			} else {
				// Cross-generation lag is unbounded by subtraction (the
				// follower needs a snapshot install); report the whole head
				// segment as the bound.
				r.LagRecords = wm.Records
				r.LagBytes = wm.Bytes
			}
			if r.LagRecords < 0 {
				r.LagRecords = 0
			}
			if r.LagBytes < 0 {
				r.LagBytes = 0
			}
		}
		resp.Replication = r
	}
	return resp
}

// missedDeadline decides whether a deadline job is (or will be reported
// as) past its deadline at slot nowSlot. Completion is observed at the
// confirmation heartbeat, one slot after the work actually ran, so a
// completed job is granted that slot as grace: work confirmed at doneSlot
// finished during slot doneSlot-1. A job confirmed at slot 0 or earlier
// (doneSlot <= 0, e.g. zero-volume work confirmed before the first tick)
// finished at time zero and can never have missed.
func missedDeadline(deadline time.Duration, done bool, doneSlot, nowSlot int64, slotDur time.Duration) bool {
	if !done {
		return time.Duration(nowSlot)*slotDur > deadline
	}
	if doneSlot <= 0 {
		return false
	}
	return time.Duration(doneSlot-1)*slotDur > deadline
}

// Slot returns the current scheduling slot.
func (s *Server) Slot() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slot
}

// BeginDrain flips the RM into drain mode: Tick stops issuing new leases
// while heartbeats keep confirming (and expiry keeps reclaiming) the
// in-flight ones. Draining is one-way for the life of the process — and
// only the process: drain state is deliberately not journaled, so a
// restarted RM schedules again instead of coming up permanently refusing
// work.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if len(s.leases) == 0 {
		s.cond.Broadcast()
	}
}

// Drain begins a drain and blocks until every outstanding lease has been
// confirmed or reclaimed, or ctx is done — whichever comes first. The
// caller must keep the RM ticking (run loop or /v1/tick) so lease expiry
// can reclaim work from nodes that died, otherwise a dead node's leases
// hold the drain open until ctx expires. The returned response reports
// whether the drain completed and which jobs a shutdown would strand.
// A drain that completes with a store attached writes a final snapshot,
// so a clean shutdown restarts with zero WAL records to replay.
func (s *Server) Drain(ctx context.Context) rmproto.DrainResponse {
	s.BeginDrain()
	s.mu.Lock()
	defer s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for len(s.leases) > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	if len(s.leases) == 0 {
		// Snapshot failures are non-fatal: the WAL already covers the
		// drained state, recovery just replays more records.
		_ = s.writeSnapshotLocked()
	}
	return s.drainStatusLocked()
}

// DrainStatus reports drain progress without blocking.
func (s *Server) DrainStatus() rmproto.DrainResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainStatusLocked()
}

func (s *Server) drainStatusLocked() rmproto.DrainResponse {
	resp := rmproto.DrainResponse{
		Draining:          s.draining,
		Complete:          len(s.leases) == 0,
		OutstandingLeases: len(s.leases),
	}
	for id := range s.jobs {
		resp.UnfinishedJobs = append(resp.UnfinishedJobs, id)
	}
	sort.Strings(resp.UnfinishedJobs)
	return resp
}
