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
	"strings"
	"sync"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

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
	// job's remaining work. Zero means rmstate.DefaultLeaseExpiry; New refuses a
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
	// AdHocGate, when true, gates ad-hoc admission on the scheduler's
	// plan's leftover capacity (see adhocGate in gate.go): a submission
	// whose demand does not fit in the live plan's slack is rejected
	// (Accepted=false) instead of queued. Requires a Scheduler that
	// implements sched.PlanStreamer; until its first replan in this
	// process, every ad-hoc submission is rejected, because there is no
	// leftover to admit against.
	AdHocGate bool
}

// Server is the resource manager. Create with New. All methods are safe
// for concurrent use.
type Server struct {
	cfg   Config
	store *store.Store

	mu   sync.Mutex
	cond *sync.Cond // signalled when the last outstanding lease clears
	// st is the replayed state (internal/rmstate): the slot, jobs,
	// workflows, leases, archive, quantum counter and journaled epoch.
	// Only a record applied to it changes it (see persist.go); everything
	// else here is this process's own.
	st *rmstate.State
	// nodes is the node set placement walks: every node this process has
	// registered, changed in place as nodes register, expire and heartbeat
	// and as slots pass (an expired one stays, with no capacity), so no tick
	// or heartbeat builds one. byID holds the registered nodes' soft state.
	nodes *rmstate.Nodes
	byID  map[string]*node
	// instance names this process's archive to status readers holding a
	// cursor into it (rmproto.DoneJobs).
	instance string
	// doneByID is the archive in ID order for Status's fold, under its own
	// lock: Status folds after it releases mu.
	doneByID struct {
		sync.Mutex
		rmproto.ArchiveIndex
	}
	// changes numbers the status walks that found a live job's wire entry
	// different from the one the walk before built (statusLocked): a
	// reader that holds the live list as of change S is sent only the
	// jobs numbered above S (rmproto.QueryLiveAfter). Scoped like
	// instance: a number means nothing under another one. reported holds,
	// per live job, the entry the last walk built and its change number.
	changes  int64
	reported map[*rmstate.Job]report
	draining bool
	// offers are the last tick's grants to jobs about to turn ready; the
	// heartbeat whose confirms make a job ready turns its offer into leases
	// and the next tick drops what is left. handoffs counts offers that
	// became leases, lapsed those that did not.
	offers           []rmstate.Offer
	handoffs, lapsed int64
	// atRisk are the workflows the last replan found short, by ID
	// (noteRiskLocked); derived, so per process like faults.
	atRisk []rmproto.WorkflowRisk

	// faults counts what this process decided, where it decided it; no
	// record changes it, so replay and a follower's ingest count nothing.
	faults   rmproto.FaultCounters
	recovery *rmproto.RecoveryStatus // non-nil after a store recovery
	// journaled is the handle of the newest WAL record this server
	// appended (see journalLocked); the zero handle until the first one.
	journaled store.Handle
	codec     rmstate.Codec // owns the encode buffer journalLocked reuses
	gate      *adhocGate    // the ad-hoc admission gate; nil unless Config.AdHocGate
	ticks     tickRing      // the last ticks' records, under a lock of its own
	// plans is the scheduler's published plan, which the gate and the
	// status plan block read; nil unless the scheduler publishes one.
	plans sched.PlanStreamer

	// Replication (see repl.go): role, fencing, the leader hint and seen,
	// the highest epoch this process has seen — its journaled one, or a
	// higher one a fence or a ship request brought.
	role      Role
	seen      int64
	fenced    bool
	leaderURL string
	repl      replState

	// gz compresses read-path responses for clients that ask (http.go).
	gz compressor
}

// report is a live job's wire entry as a status walk built it, and the
// change number it was built under.
type report struct {
	st      rmproto.JobStatus
	changed int64
}

// node is a registered node manager: its place in the node set, when it
// was last heard from, and the quanta queued for its next heartbeat.
type node struct {
	*rmstate.Node
	lastSeen time.Time
	pending  []rmstate.RecGrant
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
		return nil, fmt.Errorf("rmserver: lease expiry %d, want >= 0 (0 = default %d)", cfg.LeaseExpiry, rmstate.DefaultLeaseExpiry)
	}
	if cfg.LeaseExpiry == 0 {
		cfg.LeaseExpiry = rmstate.DefaultLeaseExpiry
	}
	if cfg.Follower && cfg.Store == nil {
		return nil, errors.New("rmserver: follower mode requires a state store")
	}
	plans, _ := cfg.Scheduler.(sched.PlanStreamer)
	if cfg.AdHocGate && plans == nil {
		return nil, fmt.Errorf("rmserver: ad-hoc gate requires a plan-streaming scheduler, %s does not stream", cfg.Scheduler.Name())
	}
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		st:        rmstate.New(cfg.SlotDur, cfg.LeaseExpiry),
		nodes:     rmstate.NewNodes(nil),
		byID:      make(map[string]*node),
		instance:  newInstance(),
		reported:  make(map[*rmstate.Job]report),
		role:      RolePrimary,
		leaderURL: cfg.LeaderURL,
		plans:     plans,
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
	if s.role == RolePrimary && s.seen == 0 {
		h, err := s.journalLocked(rmstate.Record{Epoch: &rmstate.RecEpoch{Epoch: 1}})
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
	if s.byID[req.NodeID] != nil {
		rec := s.st.DecideRequeue(func(l *rmstate.Lease) bool { return l.NodeID == req.NodeID })
		if len(rec.QIDs) > 0 {
			h, jerr = s.requeueLocked(rec)
		}
	}
	s.byID[req.NodeID] = &node{Node: s.nodes.Put(req.NodeID, capV), lastSeen: now}
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
	n := s.byID[req.NodeID]
	if n == nil {
		return rmproto.HeartbeatResponse{}, fmt.Errorf("%w %q (register first)", ErrUnknownNode, req.NodeID)
	}
	n.lastSeen = now
	n.Hear()
	archive, _ := s.st.Done()
	completed := len(archive)
	rec, stale := s.st.DecideConfirm(req.NodeID, req.Completed)
	s.faults.StaleConfirms += stale
	if len(rec.QIDs) > 0 {
		if _, err := s.journalLocked(rmstate.Record{Confirm: rec}); err != nil {
			return rmproto.HeartbeatResponse{}, err
		}
	}
	if archive, _ = s.st.Done(); len(archive) > completed && len(s.offers) > 0 && !s.draining {
		rec, kept, dispatched, lapsed, refused := s.st.DecideHandOff(s.offers, n.Node)
		s.offers = kept
		s.handoffs += dispatched
		s.lapsed += lapsed
		s.ticks.addRefused(refused)
		if len(rec.Grants) > 0 {
			if _, err := s.journalLocked(rmstate.Record{Tick: rec}); err != nil {
				return rmproto.HeartbeatResponse{}, err
			}
			for _, g := range rec.Grants {
				o := s.byID[g.NodeID]
				o.pending = append(o.pending, g)
			}
		}
	}
	// Hand out only the quanta whose lease is still live and held by this
	// node: one reclaimed while it waited — expired, or requeued when its
	// node re-registered — must not burn a slot running.
	launch := make([]rmproto.Quantum, 0, len(n.pending))
	for _, g := range n.pending {
		if l := s.st.Leases()[g.QID]; l != nil && l.NodeID == n.ID {
			launch = append(launch, g.Quantum())
		}
	}
	n.pending = n.pending[:0]
	return rmproto.HeartbeatResponse{Launch: launch}, nil
}

// HandOffs reports how many of the scheduler's offers this process turned
// into leases on a confirming heartbeat, and how many lapsed: the job was
// not ready before the next tick, or no eligible node had room.
func (s *Server) HandOffs() (dispatched, lapsed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handoffs, s.lapsed
}

// requeueLocked journals a decided requeue and, once it applied, counts
// its quanta as this process's requeues.
func (s *Server) requeueLocked(rec *rmstate.RecRequeue) (store.Handle, error) {
	h, err := s.journalLocked(rmstate.Record{Requeue: rec})
	if applied(err) {
		s.faults.RequeuedQuanta += int64(len(rec.QIDs))
	}
	return h, err
}

// anyLease selects every lease: recovery and promotion requeue them all,
// because no node the server trusts holds them any more.
func anyLease(*rmstate.Lease) bool { return true }

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
	wrec, err := s.st.AdmitWorkflow(rec, wf, s.nodes.Capacity())
	if err != nil {
		return rmproto.SubmitResponse{}, store.Handle{}, err
	}
	h, err := s.journalLocked(rmstate.Record{Workflow: wrec})
	if wrec.BestEffort && applied(err) {
		s.faults.BestEffortAdmissions++
	}
	if err != nil {
		return rmproto.SubmitResponse{}, store.Handle{}, err
	}
	return rmproto.SubmitResponse{Accepted: true, ID: wf.ID, BestEffort: wrec.BestEffort}, h, nil
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
	// As for a workflow, the admission is its journal record.
	id := rmproto.AdHocJobID(a.ID)
	arec, err := s.st.AdmitAdHoc(req.Job)
	if err != nil {
		s.mu.Unlock()
		return rmproto.SubmitResponse{}, err
	}
	// The admission gate charges the job's volume against the live plan's
	// leftover; a rejection journals nothing and changes no job. The charge
	// comes before the record is encoded, and no encode can refuse it
	// after: the codec refuses only a negative integer, and ToAdHoc has
	// refused them all — a negative or wrapping second count, fewer than one
	// task, a negative demand.
	if s.gate != nil && !s.admitAdHocLocked(a.Volume(s.cfg.SlotDur), a.ParallelCap()) {
		s.mu.Unlock()
		return rmproto.SubmitResponse{Accepted: false, ID: id}, nil
	}
	h, err := s.journalLocked(rmstate.Record{AdHoc: arec})
	s.mu.Unlock()
	if err == nil {
		err = s.commitRecord(h)
	}
	if err != nil {
		return rmproto.SubmitResponse{}, err
	}
	return rmproto.SubmitResponse{Accepted: true, ID: id}, nil
}

// Tick advances one scheduling slot at wall-clock now: decideTick decides
// it, journaling the decision applies it, the expired nodes are forgotten
// and the quanta it granted are queued on their nodes; what the scheduler
// granted a job that turns ready inside the slot is kept as an offer for
// the heartbeat that confirms its predecessors (see Heartbeat). The RM's
// run loop calls it every SlotDur; tests and POST /v1/tick call it by
// hand. A panicking scheduler is a no-grant slot: jobs stay queued and the
// RM keeps running. Before its grants become fetchable and its offers claimable, the
// tick commits what was journaled before it, so the confirms those grants
// were computed from are durable first; its own records ride the next
// commit, like a hand-off's ("Durability ordering" in persist.go), so the
// reply to POST /v1/tick acknowledges the advance, not its durability. A
// tick whose commit fails returns ErrCommitFailed and hands out nothing;
// its leases stay out until lease expiry or recovery reclaims them.
func (s *Server) Tick(now time.Time) error {
	var sw stopwatch
	sw.lap()
	s.mu.Lock()
	if err := s.leaderCheckLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	var tr TickRecord
	h := s.journaled // everything the tick's grants were computed from
	rec, expired, offers, err := s.decideTick(now, &tr, &sw)
	tr.Slot = rec.Slot
	tr.Decide += sw.lap()
	_, jerr := s.journalLocked(rmstate.Record{Tick: rec})
	tr.Journal = sw.lap()
	if s.st.Slot() == rec.Slot {
		// The record applied, requeuing the silent nodes' leases: forget
		// the nodes and count both. A record the codec refused leaves them,
		// leases and all.
		s.forgetNodesLocked(expired)
		s.faults.ExpiredNodes += int64(len(expired))
		s.faults.RequeuedQuanta += int64(len(rec.Requeued))
	}
	s.rebaseAdHocLocked() // the tick's replan may have published a plan
	s.mu.Unlock()
	tr.Decide += sw.lap()
	if jerr == nil {
		jerr = s.commitRecord(h)
	}
	tr.Commit = sw.lap()
	if jerr != nil {
		s.ticks.put(tr)
		return jerr
	}
	// Queue the quanta read off the record's grants on the nodes the RM
	// still tracks and arm the slot's offers now that what came before the
	// tick is durable. A lease may have been reclaimed while the commit ran
	// — node re-registration runs concurrently — which the heartbeat that
	// flushes the queue sees; offers are this slot's or nobody's, and a
	// hand-off adds what it refuses to the record the ring holds by then.
	s.mu.Lock()
	for _, g := range rec.Grants {
		if n := s.byID[g.NodeID]; n != nil {
			n.pending = append(n.pending, g)
		}
	}
	if s.st.Slot() == rec.Slot {
		s.offers = offers
	} else {
		s.lapsed += int64(len(offers))
	}
	tr.Place += sw.lap()
	s.ticks.put(tr)
	s.mu.Unlock()
	return err
}

// decideTick decides one slot, changing nothing replay rebuilds, in
// rmstate's two steps around the scheduler (State.DecideTick, PlaceTick).
// now is the only clock it reads: the nodes silent for longer than
// NodeExpiry are returned as expired, for Tick to forget once the record
// applied (nodes are soft state); their leases are requeued and they get
// no grants. When it schedules, it times its two steps on sw into tr,
// with the replan the scheduler reports. It starts the node set's slot.
func (s *Server) decideTick(now time.Time, tr *TickRecord, sw *stopwatch) (rec *rmstate.RecTick, expired map[string]bool, offers []rmstate.Offer, err error) {
	// The previous slot is over: its unclaimed offers lapse.
	s.lapsed += int64(len(s.offers))
	s.offers = nil

	s.nodes.NewSlot()
	capacity := s.nodes.Capacity()
	//det:unordered expired is a set and capacity a difference
	for _, n := range s.byID {
		if s.cfg.NodeExpiry > 0 && now.Sub(n.lastSeen) > s.cfg.NodeExpiry {
			if expired == nil {
				expired = make(map[string]bool)
			}
			expired[n.ID] = true
			capacity = capacity.Sub(n.Capacity)
			n.Hear() // it takes no placement, and stays registered until the record applies
		}
	}
	// Drain: no new leases; keep ticking so expiry still reclaims whatever
	// dead nodes hold.
	schedule := !s.draining && !capacity.IsZero()
	rec, jobs := s.st.DecideTick(expired, schedule)
	if !schedule {
		return rec, expired, nil, nil
	}
	grants, err := s.safeAssign(sched.AssignContext{
		Now:     s.st.Slot(),
		Changed: true, // schedulers with staleness detection replan as needed
		Jobs:    jobs,
		Cluster: sched.ClusterView{
			SlotDur: s.cfg.SlotDur,
			Horizon: horizon,
			CapAt:   func(int64) resource.Vector { return capacity },
		},
	})
	if err != nil {
		return rec, expired, nil, fmt.Errorf("rmserver: scheduler: %w", err)
	}
	if rr, ok := s.cfg.Scheduler.(sched.ReplanReporter); ok {
		tr.Replan = rr.LastReplan()
		s.noteRiskLocked(tr.Replan)
	}
	tr.Decide = sw.lap() - tr.Replan.StageA - tr.Replan.StageB - tr.Replan.Repair
	offers, tr.Refused = s.st.PlaceTick(rec, jobs, grants, s.nodes)
	tr.Place = sw.lap()
	return rec, expired, offers, nil
}

// noteRiskLocked takes the workflows at risk from a replan, keeping for
// each one the first replan that found it short while every later one
// has; a tick that ran no replan changes nothing.
func (s *Server) noteRiskLocked(r sched.ReplanStats) {
	if r.Cause == "" {
		return
	}
	var next []rmproto.WorkflowRisk
	for _, id := range r.AtRisk {
		w := rmproto.WorkflowRisk{WorkflowID: id, CutFromSlot: r.CutFrom, CutToSlot: r.CutTo, SinceSlot: r.Slot}
		if i, ok := slices.BinarySearchFunc(s.atRisk, id, func(w rmproto.WorkflowRisk, id string) int { return strings.Compare(w.WorkflowID, id) }); ok {
			w.SinceSlot = s.atRisk[i].SinceSlot
		}
		next = append(next, w)
	}
	s.atRisk = next
}

// forgetNodesLocked forgets the nodes gone names: their soft state goes
// and their place in the node set holds no capacity.
func (s *Server) forgetNodesLocked(gone map[string]bool) {
	//det:unordered each node is forgotten on its own
	for id := range gone {
		delete(s.byID, id)
		s.nodes.Put(id, resource.Vector{})
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

// Status snapshots the cluster as the process sees it, without touching
// the disk: confirms and slot advances journaled since the last commit are
// in it although a machine crash would still take them back. In-process
// callers read this; GET /v1/status answers syncedStatus. The lock is
// held for the live jobs only: the completed ones are merged in after it
// is released, from the archive kept in ID order.
func (s *Server) Status() rmproto.StatusResponse {
	s.mu.Lock()
	resp := s.statusLocked(true, 0)
	s.mu.Unlock()
	s.doneByID.Lock()
	resp.Fold(s.doneByID.ByID(resp.Done.Instance, resp.Done.Jobs))
	s.doneByID.Unlock()
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

// statusLocked reports everything but the jobs themselves in O(live
// jobs): Summary and LiveChange always, and with listJobs the live jobs
// changed after change number liveAfter, sorted by ID, in Jobs and the
// whole archive, unmerged, in Done. Its walk is where a live job's change
// is detected: a wire entry that differs from the one the previous walk
// built is stored under the next change number. Admission, placement,
// confirms, requeues, the slot passing a deadline, replay and follower
// ingest all move a job's entry without having to say so.
func (s *Server) statusLocked(listJobs bool, liveAfter int64) rmproto.StatusResponse {
	archive, missed := s.st.Done()
	jobs := s.st.Jobs()
	resp := rmproto.StatusResponse{
		Slot:              s.st.Slot(),
		Nodes:             len(s.byID),
		Capacity:          rmproto.FromVector(s.nodes.Capacity()),
		Draining:          s.draining,
		OutstandingLeases: len(s.st.Leases()),
		Faults:            s.faults,
		Recovery:          s.recovery,
		Summary:           rmproto.JobSummary{Completed: len(archive), Missed: missed},
		AtRisk:            s.atRisk,
	}
	if listJobs {
		resp.Jobs = make([]rmproto.JobStatus, 0, len(jobs))
	}
	stamp := s.changes + 1
	//det:unordered every job gets the one stamp, the summary counts commute and the list is sorted below
	for _, j := range jobs {
		st := s.st.JobStatus(j)
		rep := s.reported[j]
		if st != rep.st {
			rep, s.changes = report{st: st, changed: stamp}, stamp
			s.reported[j] = rep
		}
		if st.State == "running" {
			resp.Summary.Running++
		} else {
			resp.Summary.Pending++
		}
		if st.Missed {
			resp.Summary.Missed++
		}
		if listJobs && rep.changed > liveAfter {
			resp.Jobs = append(resp.Jobs, st)
		}
	}
	if len(s.reported) > len(jobs) {
		// Forget the jobs that completed, or left with a replaced state.
		for j := range s.reported { //det:unordered deletions commute
			if jobs[j.ID] != j {
				delete(s.reported, j)
			}
		}
	}
	resp.LiveChange = s.changes
	if listJobs {
		sort.Slice(resp.Jobs, func(a, b int) bool { return resp.Jobs[a].ID < resp.Jobs[b].ID })
		n := len(archive)
		resp.Done = &rmproto.DoneJobs{Instance: s.instance, Total: n, Jobs: archive[:n:n]}
	}
	if s.plans != nil {
		lp := s.plans.LivePlan()
		p := &rmproto.PlanStatus{Rev: lp.Rev, From: lp.From, NSlots: lp.NSlots, Jobs: len(lp.Jobs)}
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
		wm := s.store.Watermark()
		r := &rmproto.ReplicationStatus{
			Role:      s.role.String(),
			RoleCode:  int(s.role),
			Epoch:     s.seen,
			Fenced:    s.fenced,
			LeaderURL: s.leaderURL,
			Watermark: rmproto.ReplWatermark{Gen: wm.Gen, Records: wm.Records, Bytes: wm.Bytes},
		}
		if s.repl.hasFollower {
			f := s.repl.followerWM
			r.FollowerSeen = true
			r.FollowerWatermark = rmproto.ReplWatermark{Gen: f.Gen, Records: f.Records, Bytes: f.Bytes}
			// Cross-generation lag is unbounded by subtraction (the follower
			// needs a snapshot install); the whole head segment bounds it.
			r.LagRecords, r.LagBytes = wm.Records, wm.Bytes
			if f.Gen == wm.Gen {
				r.LagRecords, r.LagBytes = max(wm.Records-f.Records, 0), max(wm.Bytes-f.Bytes, 0)
			}
		}
		resp.Replication = r
	}
	return resp
}

// Slot returns the current scheduling slot.
func (s *Server) Slot() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Slot()
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
	if len(s.st.Leases()) == 0 {
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
	for len(s.st.Leases()) > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	if len(s.st.Leases()) == 0 {
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
	leases := len(s.st.Leases())
	resp := rmproto.DrainResponse{
		Draining:          s.draining,
		Complete:          leases == 0,
		OutstandingLeases: leases,
	}
	for id := range s.st.Jobs() {
		resp.UnfinishedJobs = append(resp.UnfinishedJobs, id)
	}
	sort.Strings(resp.UnfinishedJobs)
	return resp
}
