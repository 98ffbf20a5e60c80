package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/deadline"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// spanKind names a span. Top-level spans are the rmserver calls of the
// op list; the rest are recorded inside them, at the seams the server
// lets a caller inject: the scheduler and the store's filesystem.
type spanKind uint8

const (
	spSubmitWF spanKind = iota
	spSubmitAdHoc
	spTick
	spHeartbeat
	spStatus
	spMetrics
	spAssign    // core: sched.Scheduler.Assign
	spLPSolve   // lp: the solver's share of an Assign (from FlowTime.Stats deltas)
	spEncode    // plan: encoding the diffs a tick emitted
	spWrite     // store: WAL write
	spFsync     // store: WAL fsync
	spDecompose // deadline: Decompose on a submitted workflow (timed beside the call)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"rmserver.submit_wf", "rmserver.submit_adhoc", "rmserver.tick", "rmserver.heartbeat",
	"rmserver.status", "rmserver.metrics", "core.assign", "lp.solve", "plan.encode",
	"store.write", "store.fsync", "deadline.decompose",
}

type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 at top level
	slot       int32 // RM slot when the span began
	start, end time.Duration
}

// recorder keeps spans in memory; they are written out when the run
// ends. The traced pass is single-goroutine, so it needs no lock.
type recorder struct {
	epoch time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
	slot  int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (r *recorder) begin(k spanKind) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: r.cur, slot: r.slot, start: time.Since(r.epoch)})
	r.cur = id
	return id
}

func (r *recorder) end(id int32) time.Duration {
	sp := &r.spans[id]
	sp.end = time.Since(r.epoch)
	r.cur = sp.parent
	return sp.end - sp.start
}

// add records a child span whose duration was measured elsewhere,
// ending now.
func (r *recorder) add(k spanKind, d time.Duration) {
	end := time.Since(r.epoch)
	r.spans = append(r.spans, span{kind: k, parent: r.cur, slot: r.slot, start: end - d, end: end})
}

// spanCost calibrates what one begin/end pair costs.
func spanCost() time.Duration {
	const n = 200000
	r := newRecorder(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin(spWrite))
	}
	return time.Since(start) / n
}

// writeJSONL writes one span per line: name, start and end in
// nanoseconds since the trace began, parent span and slot.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, sp := range r.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[sp.kind]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, int64(sp.start), 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, int64(sp.end), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(sp.parent), 10)
		line = append(line, `,"slot":`...)
		line = strconv.AppendInt(line, int64(sp.slot), 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSched decorates the injected scheduler: a span around Assign
// with the LP's share taken from FlowTime.Stats deltas, and the diffs a
// replan emits re-encoded as they pass through TakePlanDiffs.
type tracedSched struct {
	ft  *core.FlowTime
	rec *recorder

	replanDur                 []time.Duration // Assign calls that replanned
	diffs, slotOps, diffBytes int64
}

func (s *tracedSched) Name() string { return s.ft.Name() }

func (s *tracedSched) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	before := s.ft.Stats()
	id := s.rec.begin(spAssign)
	grants, err := s.ft.Assign(ctx)
	after := s.ft.Stats()
	if lp := after.LP.Duration - before.LP.Duration; lp > 0 {
		s.rec.add(spLPSolve, lp)
	}
	d := s.rec.end(id)
	if after.Replans > before.Replans {
		s.replanDur = append(s.replanDur, d)
	}
	return grants, err
}

func (s *tracedSched) LivePlan() *plan.Plan { return s.ft.LivePlan() }

func (s *tracedSched) TakePlanDiffs() []*plan.Diff {
	diffs := s.ft.TakePlanDiffs()
	if len(diffs) == 0 {
		return diffs
	}
	id := s.rec.begin(spEncode)
	for _, d := range diffs {
		s.diffs++
		for _, u := range d.Update {
			s.slotOps += int64(len(u.Set))
		}
		if payload, err := plan.EncodeDiff(d); err == nil {
			s.diffBytes += int64(len(payload))
		} // the server encodes the same diff next and reports a failure itself
	}
	s.rec.end(id)
	return diffs
}

func (s *tracedSched) FoldAdHocDrain(from int64, consumed []resource.Vector) {
	s.ft.FoldAdHocDrain(from, consumed)
}

func (s *tracedSched) Degradation() sched.DegradationStatus { return s.ft.Degradation() }

var (
	_ sched.PlanStreamer        = (*tracedSched)(nil)
	_ sched.AdHocFolder         = (*tracedSched)(nil)
	_ sched.DegradationReporter = (*tracedSched)(nil)
)

// tracedFS wraps the store's filesystem so WAL writes and fsyncs become
// spans inside whichever server call caused them.
type tracedFS struct {
	store.FS
	rec *recorder
}

func (fs tracedFS) OpenAppend(path string) (store.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, rec: fs.rec}, nil
}

type tracedFile struct {
	store.File
	rec *recorder
}

func (f tracedFile) Write(p []byte) (int, error) {
	id := f.rec.begin(spWrite)
	n, err := f.File.Write(p)
	f.rec.end(id)
	return n, err
}

func (f tracedFile) Sync() error {
	id := f.rec.begin(spFsync)
	err := f.File.Sync()
	f.rec.end(id)
	return err
}

// tracedTarget is the in-process RM of the traced pass: the same server
// ftrm builds, driven through its Go methods, measured only from
// outside.
type tracedTarget struct {
	srv     *rmserver.Server
	st      *store.Store
	sched   *tracedSched
	rec     *recorder
	handler http.Handler

	capacity     resource.Vector
	decomposeDur []time.Duration // per submitted workflow, timed phase only
	timed        bool
}

func newTracedTarget(stateDir string, spans int) (*tracedTarget, error) {
	rec := newRecorder(spans)
	cfg := core.DefaultConfig() // ftrm's defaults: 60 s slack, no LP budget
	cfg.StreamPlans = true
	ts := &tracedSched{ft: core.New(cfg), rec: rec}
	st, err := store.Open(store.Options{Dir: stateDir, Policy: store.SyncAlways, FS: tracedFS{FS: store.OSFS, rec: rec}})
	if err != nil {
		return nil, err
	}
	srv, err := rmserver.New(rmserver.Config{
		SlotDur:    slotDur,
		Scheduler:  ts,
		NodeExpiry: 3 * slotDur,
		Store:      st,
		AdHocGate:  true,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &tracedTarget{srv: srv, st: st, sched: ts, rec: rec, handler: srv.Handler()}, nil
}

func (t *tracedTarget) Register(n nodeSpec) error {
	c := rmproto.Resources{VCores: n.vcores, MemoryMB: n.memoryMB}
	t.capacity = t.capacity.Add(c.ToVector())
	_, err := t.srv.RegisterNode(rmproto.RegisterNodeRequest{NodeID: n.id, Capacity: c}, time.Now())
	return err
}

func (t *tracedTarget) SubmitWorkflow(rec trace.WorkflowRecord) (rmproto.SubmitResponse, error) {
	if t.timed {
		t.timeDecompose(rec)
	}
	id := t.rec.begin(spSubmitWF)
	resp, err := t.srv.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: rec})
	t.rec.end(id)
	return resp, err
}

// timeDecompose runs the decomposition the server is about to run, on
// the same workflow against the same capacity, and records how long it
// took. It runs before the submit span opens, so it is in nobody's self
// time.
func (t *tracedTarget) timeDecompose(rec trace.WorkflowRecord) {
	tr := trace.Trace{Version: trace.FormatVersion, Workflows: []trace.WorkflowRecord{rec}}
	wfs, _, err := tr.ToWorkload()
	if err != nil {
		return // the submission itself will fail and be counted
	}
	wf := wfs[0]
	now := time.Duration(t.rec.slot) * slotDur
	wf.Deadline = now + (wf.Deadline - wf.Submit)
	wf.Submit = now
	opts := deadline.Options{Slot: slotDur, ClusterCap: t.capacity}
	start := time.Now()
	if _, err := deadline.Decompose(wf, opts); err != nil {
		opts.ForceCriticalPath = true
		_, _ = deadline.Decompose(wf, opts) // infeasible twice is a best-effort admission, counted from the reply
	}
	d := time.Since(start)
	t.decomposeDur = append(t.decomposeDur, d)
	t.rec.add(spDecompose, d)
}

func (t *tracedTarget) SubmitAdHoc(rec trace.AdHocRecord) (rmproto.SubmitResponse, error) {
	id := t.rec.begin(spSubmitAdHoc)
	resp, err := t.srv.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: rec})
	t.rec.end(id)
	return resp, err
}

func (t *tracedTarget) Tick() error {
	id := t.rec.begin(spTick)
	err := t.srv.Tick(time.Now())
	t.rec.end(id)
	t.rec.slot++
	return err
}

func (t *tracedTarget) Heartbeat(req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
	id := t.rec.begin(spHeartbeat)
	resp, err := t.srv.Heartbeat(req, time.Now())
	t.rec.end(id)
	return resp, err
}

func (t *tracedTarget) Status() (rmproto.StatusResponse, error) {
	id := t.rec.begin(spStatus)
	st := t.srv.Status()
	t.rec.end(id)
	return st, nil
}

// Metrics renders /metrics through the server's handler without a
// socket: the text exposition is built inside the handler.
func (t *tracedTarget) Metrics() error {
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	id := t.rec.begin(spMetrics)
	t.handler.ServeHTTP(w, req)
	t.rec.end(id)
	if w.Code != http.StatusOK {
		return fmt.Errorf("GET /metrics: %d", w.Code)
	}
	return nil
}

// tracedResult is the traced pass: what the player saw plus what only an
// in-process run can see.
type tracedResult struct {
	*playResult
	rec          *recorder
	firstTimed   int // index of the first span of the timed phase
	final        rmproto.StatusResponse
	planner      *tracedSched // its counters cover the timed phase only
	stats        core.Stats   // the scheduler's work over the timed phase
	degrade      sched.DegradationStatus
	decomposeDur []time.Duration
	// what the store appended and synced over the timed phase
	walRecords, walBytes, fsyncs int64
	replay                       time.Duration // reopening the used state dir and replaying its WAL
	spanCost                     time.Duration
}

// runTraced replays the scenario in-process with spans on, ends with the
// recovery-equivalence oracle, then times a replay of the directory.
func runTraced(sc *scenario, outDir string) (*tracedResult, error) {
	stateDir := filepath.Join(outDir, "state-"+sc.name+"-traced")
	scratch := stateDir + "-equiv"
	for _, d := range []string{stateDir, scratch} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	spans := 0
	for _, sl := range sc.slots {
		// per op: the call, a WAL write and an fsync; per tick a few more
		spans += 3*(len(sl.wfs)+len(sl.adhoc)+len(sc.nodes)) + 12
	}
	cost := spanCost()
	t, err := newTracedTarget(stateDir, spans)
	if err != nil {
		return nil, err
	}
	defer func() { t.st.Close() }()

	p := newPlayer(sc, t, nil)
	if sc.scraper {
		// Replayed serially: spans measure layer cost, not contention.
		p.scr, p.serialScrape = t, true
	}
	if err := p.setup(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	res := &tracedResult{playResult: p.res, rec: t.rec, firstTimed: len(t.rec.spans), planner: t.sched, spanCost: cost}
	t.timed = true
	schedBefore, storeBefore := t.sched.ft.Stats(), t.st.Stats()
	t.sched.replanDur, t.sched.diffs, t.sched.slotOps, t.sched.diffBytes = nil, 0, 0, 0
	p.run()
	if res.firstErr != nil {
		return nil, fmt.Errorf("traced pass: %w", res.firstErr)
	}
	res.final = t.srv.Status()
	res.stats = statsDelta(t.sched.ft.Stats(), schedBefore)
	res.degrade = t.sched.ft.Degradation()
	res.decomposeDur = t.decomposeDur
	storeAfter := t.st.Stats()
	res.walRecords = storeAfter.WALRecords - storeBefore.WALRecords
	res.walBytes = storeAfter.WALBytes - storeBefore.WALBytes
	res.fsyncs = storeAfter.Fsyncs - storeBefore.Fsyncs

	if err := t.srv.VerifyRecoveryEquivalence(scratch); err != nil {
		return nil, err
	}
	if err := t.st.Close(); err != nil {
		return nil, fmt.Errorf("close traced store: %w", err)
	}
	start := time.Now()
	st2, err := store.Open(store.Options{Dir: stateDir, Policy: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	t.st = st2 // closed by the deferred Close
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	if _, err := rmserver.New(rmserver.Config{SlotDur: slotDur, Scheduler: core.New(cfg), Store: st2, AdHocGate: true}); err != nil {
		return nil, fmt.Errorf("replay traced state dir: %w", err)
	}
	res.replay = time.Since(start)
	return res, nil
}

// statsDelta returns the scheduler counters the report uses, over the
// timed phase alone.
func statsDelta(after, before core.Stats) core.Stats {
	var d core.Stats
	d.Replans = after.Replans - before.Replans
	d.LPRounds = after.LPRounds - before.LPRounds
	d.StageASkipped = after.StageASkipped - before.StageASkipped
	d.AdHocFolds = after.AdHocFolds - before.AdHocFolds
	d.LP.Pivots = after.LP.Pivots - before.LP.Pivots
	d.LP.WarmStarts = after.LP.WarmStarts - before.LP.WarmStarts
	d.LP.ColdStarts = after.LP.ColdStarts - before.LP.ColdStarts
	d.LP.Refactors = after.LP.Refactors - before.LP.Refactors
	return d
}
