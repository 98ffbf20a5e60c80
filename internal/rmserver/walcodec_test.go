package rmserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowtime/internal/binenc"
	"flowtime/internal/core"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// streamingConfig is the configuration the codec tests record and recover
// under: FlowTime streaming its plan, the ad-hoc gate on, leases expiring
// after three slots.
func streamingConfig(st *store.Store, follower bool) Config {
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	return Config{SlotDur: slotDur, Scheduler: core.New(cfg), Store: st, AdHocGate: true, LeaseExpiry: 3, Follower: follower}
}

func openStreamingRM(tb testing.TB, dir string, follower bool) *Server {
	tb.Helper()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		tb.Fatalf("store.Open: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	rm, err := New(streamingConfig(st, follower))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return rm
}

// readWAL returns copies of the payloads in dir's generation-0 segment.
func readWAL(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "wal-000000000000.log"))
	if err != nil {
		tb.Fatal(err)
	}
	payloads, _, err := store.DecodeAll(raw)
	if err != nil {
		tb.Fatalf("recorded WAL does not decode cleanly: %v", err)
	}
	return payloads
}

// recordMixedRun journals one seeded run through the codec and returns
// the server that ended it and its whole WAL. The run is made to contain
// every record variant: workflows and gated ad-hoc jobs arriving
// throughout on three nodes; n1 restarts at slot 7 holding leases (a
// requeue record) and wedges from slot 10 until its leases expire (ticks
// with requeues); every record ships to a warm standby, which is then
// promoted with leases in flight (its epoch and requeue records) and
// keeps scheduling — its restarted planner's first revision does not
// chain onto the replicated plan, so it journals a plan rebase, then
// diffs again. The standby's log is the run's.
func recordMixedRun(tb testing.TB) (*Server, [][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(18))
	now := time.Now()
	nodes := []string{"n1", "n2", "n3"}
	held := map[string][]string{}
	reg := func(rm *Server, id string) {
		register(tb, rm, id, 4, 8*1024)
		held[id] = nil
	}
	submit := func(rm *Server, slot int) {
		if slot%4 == 0 {
			wf := chainWorkflow(int64(200 + rng.Intn(400)))
			wf.ID = fmt.Sprintf("wf-%d", slot)
			if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil {
				tb.Fatalf("SubmitWorkflow: %v", err)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
				ID: fmt.Sprintf("a%d-%d", slot, i), Tasks: 1 + rng.Intn(3), TaskDurSec: int64(10 * (1 + rng.Intn(2))), DemandVCores: 1, DemandMemMB: 512,
			}}); err != nil {
				tb.Fatalf("SubmitAdHoc: %v", err)
			}
		}
	}
	beat := func(rm *Server, slot int) {
		if err := rm.Tick(now); err != nil {
			tb.Fatalf("Tick: %v", err)
		}
		for _, n := range nodes {
			wedged := n == "n1" && slot >= 10 && slot < 16
			req := rmproto.HeartbeatRequest{NodeID: n}
			if !wedged {
				req.Completed = held[n]
			}
			resp, err := rm.Heartbeat(req, now)
			if err != nil {
				tb.Fatalf("Heartbeat(%s): %v", n, err)
			}
			held[n] = nil
			if !wedged {
				held[n] = quantumIDs(resp.Launch)
			}
		}
	}

	primary := openStreamingRM(tb, tb.TempDir(), false)
	standbyDir := tb.TempDir()
	standby := openStreamingRM(tb, standbyDir, true)
	for _, n := range nodes {
		reg(primary, n)
	}
	slot := 0
	for ; slot < 18; slot++ {
		submit(primary, slot)
		if slot == 7 {
			reg(primary, "n1") // restarted with empty hands
		}
		beat(primary, slot)
		pumpRepl(tb, primary, standby)
	}
	if resp, err := standby.Promote(); err != nil || resp.OrphanLeasesRequeued == 0 {
		tb.Fatalf("Promote = %+v, %v; want orphan leases requeued", resp, err)
	}
	for _, n := range nodes {
		reg(standby, n)
	}
	for ; slot < 26; slot++ {
		submit(standby, slot)
		beat(standby, slot)
	}
	return standby, readWAL(tb, standbyDir)
}

func variantOf(rec *walRecord) string {
	switch {
	case rec.Workflow != nil:
		return "wf"
	case rec.AdHoc != nil:
		return "adhoc"
	case rec.Tick != nil:
		return "tick"
	case rec.Confirm != nil:
		return "confirm"
	case rec.Requeue != nil:
		return "requeue"
	case rec.Epoch != nil:
		return "epoch"
	case rec.PlanDiff != nil:
		return "plan_diff"
	case rec.PlanRebase != nil:
		return "plan_rebase"
	}
	return "empty"
}

// recoverFrom writes payloads as a generation-0 WAL (cut tornBytes short
// of its end) in a fresh directory and recovers a server from it.
func recoverFrom(tb testing.TB, payloads [][]byte, tornBytes int) (*Server, store.RecoveryInfo, error) {
	tb.Helper()
	var log []byte
	for _, p := range payloads {
		frame, err := store.EncodeRecord(p)
		if err != nil {
			tb.Fatal(err)
		}
		log = append(log, frame...)
	}
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-000000000000.log"), log[:len(log)-tornBytes], 0o644); err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		tb.Fatalf("store.Open: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	rm, err := New(streamingConfig(st, false))
	return rm, st.Recovery(), err
}

func snapshotOf(tb testing.TB, rm *Server) []byte {
	tb.Helper()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	snap, err := rm.snapshotLocked()
	if err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestWALCodecReplayEquivalence: the journal of a run through a promotion
// holds every record variant, and replays to the server that wrote it.
func TestWALCodecReplayEquivalence(t *testing.T) {
	live, binary := recordMixedRun(t)

	var codec walCodec
	seen := map[string]int{}
	tickRequeues := 0
	for i, p := range binary {
		rec, err := codec.decode(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		seen[variantOf(&rec)]++
		if rec.Tick != nil {
			tickRequeues += len(rec.Tick.Requeued)
		}
	}
	for _, v := range []string{"wf", "adhoc", "tick", "confirm", "requeue", "plan_diff", "plan_rebase"} {
		if seen[v] == 0 {
			t.Errorf("the run journaled no %s record: %v", v, seen)
		}
	}
	if seen["epoch"] < 2 || seen["requeue"] < 2 || tickRequeues == 0 {
		t.Errorf("want the first primary's and the promotion's epoch, a re-registration and a promotion requeue, and a lease expiry; got %v, %d quanta requeued by ticks", seen, tickRequeues)
	}

	rm, info, err := recoverFrom(t, binary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(binary) || info.Truncated {
		t.Fatalf("recovered %d of %d records, truncated=%v", info.Records, len(binary), info.Truncated)
	}
	if err := rm.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Error(err)
	}
	want := snapshotOf(t, rm)
	recovered, err := normalizeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	wrote, err := normalizeSnapshot(snapshotOf(t, live))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, wrote) {
		t.Errorf("server recovered from the log differs from the one that wrote it:\nrecovered: %s\nlive:      %s", recovered, wrote)
	}

	// A crash anywhere inside the final record's append recovers to the
	// state before it.
	before, _, err := recoverFrom(t, binary[:len(binary)-1], 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBefore := snapshotOf(t, before)
	if bytes.Equal(wantBefore, want) {
		t.Fatal("the final record changes nothing: the truncation check would be vacuous")
	}
	lastFrame := len(binary[len(binary)-1]) + 8
	for torn := 1; torn <= lastFrame; torn++ {
		rm, info, err := recoverFrom(t, binary, torn)
		if err != nil {
			t.Fatalf("final record torn by %d bytes: %v", torn, err)
		}
		if info.Records != len(binary)-1 || info.Truncated != (torn < lastFrame) {
			t.Fatalf("final record torn by %d of %d bytes: %d records, truncated=%v", torn, lastFrame, info.Records, info.Truncated)
		}
		if got := snapshotOf(t, rm); !bytes.Equal(got, wantBefore) {
			t.Fatalf("final record torn by %d bytes: recovered state is not the pre-record state", torn)
		}
	}

	// A payload that passes its CRC but is one byte short or long is not a
	// torn tail: recovery refuses the directory, naming the record, as it
	// does for any record it cannot apply.
	first := map[string]int{}
	for i, p := range binary {
		rec, _ := codec.decode(p)
		if _, ok := first[variantOf(&rec)]; !ok {
			first[variantOf(&rec)] = i
		}
	}
	for v, i := range first {
		for name, bad := range map[string][]byte{
			"cut":      binary[i][:len(binary[i])-1],
			"extended": append(append([]byte{}, binary[i]...), 0),
		} {
			log := append(append([][]byte{}, binary[:i]...), bad)
			_, _, err := recoverFrom(t, log, 0)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replay record %d/%d", i+1, i+1)) {
				t.Errorf("%s record %s by one byte: recovery = %v, want a replay error naming record %d", v, name, err, i+1)
			}
			if _, err := codec.decode(bad); err == nil {
				t.Errorf("%s record %s by one byte decodes", v, name)
			}
		}
	}
}

// namedRecord is a walRecord with a label for test output.
type namedRecord struct {
	name string
	rec  walRecord
}

// canonicalRecords is one value per record variant, plus the shapes only
// a hand-built record has: quantum IDs that are not the server's own
// form, grants whose expiries differ, and the extremes of the integer
// range.
func canonicalRecords() []namedRecord {
	faults := rmproto.FaultCounters{RequeuedQuanta: 3, ExpiredNodes: 1, StaleConfirms: 200, PlanDiffsApplied: 70, PlanRebases: 1}
	return []namedRecord{
		{"workflow", walRecord{Workflow: &recWorkflow{WF: chainWorkflow(600), SubmitNS: 50e9, DeadlineNS: 650e9, Slot: 5, BestEffort: true,
			Windows: []recWindow{{ReleaseNS: 50e9, DeadlineNS: 300e9, MinSlots: 3}, {ReleaseNS: 300e9, DeadlineNS: 650e9, MinSlots: 3}}}}},
		{"workflow, empty", walRecord{Workflow: &recWorkflow{}}},
		{"adhoc", walRecord{AdHoc: &recAdHoc{Job: trace.AdHocRecord{ID: "burst-0123-07", Tasks: 3, TaskDurSec: 120, DemandVCores: 2, DemandMemMB: 4096}, Slot: 123}}},
		{"tick", walRecord{Tick: &recTick{Slot: 36, Faults: faults, Requeued: []string{"q-10", "q-9", "lease/x", "q-007"},
			Grants: []recGrant{
				{QID: "q-627", JobID: "wf0001/TeraSort-1#1", NodeID: "n000", Grant: resource.New(8, 32768), Expiry: 51},
				{QID: "q-628", JobID: "wf0001/TeraSort-1#1", NodeID: "n001", Grant: resource.New(6, 1024), Expiry: 51},
				{QID: "q-629", JobID: "adhoc/a-1", NodeID: "n001", Grant: resource.New(1, 512), Expiry: 51},
			}}}},
		{"tick, idle", walRecord{Tick: &recTick{Slot: 1}}},
		{"tick, odd expiries", walRecord{Tick: &recTick{Slot: math.MaxInt64, Grants: []recGrant{
			{QID: "q-9223372036854775807", JobID: "j", NodeID: "j", Expiry: 0},
			{QID: "q-0", JobID: "", NodeID: "n", Expiry: math.MaxInt64},
			{QID: "", JobID: "j", NodeID: "", Grant: resource.New(math.MaxInt64, 0), Expiry: 7},
		}}}},
		{"tick, expiry at the top of the range", walRecord{Tick: &recTick{Grants: []recGrant{
			{QID: "q-1", JobID: "j", NodeID: "n", Expiry: math.MaxInt64}, {QID: "q-2", JobID: "j", NodeID: "n", Expiry: math.MaxInt64}}}}},
		{"confirm", walRecord{Confirm: &recConfirm{Slot: 300, Faults: faults, QIDs: []string{"q-13960", "q-13961", "q-13964", "q-13962", "q-13970", "q-13971"}}}},
		{"requeue", walRecord{Requeue: &recRequeue{Faults: faults, QIDs: []string{"q-100", "q-98", "q-99"}}}},
		{"epoch", walRecord{Epoch: &recEpoch{Epoch: 2, Slot: 18}}},
		{"plan diff", walRecord{PlanDiff: &recPlanDiff{Diff: canonicalDiff(2, 3)}}},
		{"plan rebase", walRecord{PlanRebase: &recPlanRebase{Plan: &plan.Plan{Rev: 4, From: 18, NSlots: 2, Jobs: map[string]plan.Job{
			"adhoc/ah00470": {Window: plan.Window{Rel: 18, Dl: 20}, Alloc: []resource.Vector{resource.New(1, 512), {}}}}}}}},
		{"plan rebase, empty", walRecord{PlanRebase: &recPlanRebase{Plan: &plan.Plan{Rev: 1}}}},
	}
}

func canonicalRecord(name string) walRecord {
	for _, c := range canonicalRecords() {
		if c.name == name {
			return c.rec
		}
	}
	panic("no canonical record " + name)
}

// canonicalDiff is a diff of jobs jobs, each setting slots consecutive
// slots.
func canonicalDiff(jobs, slots int) *plan.Diff {
	d := &plan.Diff{BaseRev: 41, NewRev: 42, From: 73, NSlots: int64(slots)}
	for j := 0; j < jobs; j++ {
		u := plan.JobUpdate{ID: fmt.Sprintf("wf0001/TeraSort-%d#%d", j, j), Add: j%2 == 0, Window: plan.Window{Rel: 73, Dl: 73 + int64(slots)}}
		for s := 0; s < slots; s++ {
			u.Set = append(u.Set, plan.SlotSet{Slot: 73 + int64(s), Alloc: resource.New(14, 17129)})
		}
		d.Update = append(d.Update, u)
	}
	return d
}

func TestWALCodecRoundTrip(t *testing.T) {
	var codec walCodec
	for _, c := range canonicalRecords() {
		name, rec := c.name, c.rec
		payload, err := codec.encode(&rec)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		payload = append([]byte{}, payload...)
		got, err := codec.decode(payload)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: decode∘encode is not the identity:\n%s\n%s", name, mustJSON(got), mustJSON(rec))
		}
		if re, err := codec.encode(&got); err != nil || !bytes.Equal(re, payload) {
			t.Errorf("%s: encode∘decode is not the identity (%v):\n%x\n%x", name, err, payload, re)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := codec.decode(payload[:n]); err == nil {
				t.Errorf("%s: payload torn at %d/%d bytes decodes", name, n, len(payload))
			}
		}
		// The JSON form of the same record, which RMs before the codec
		// journaled, is refused by name.
		if _, err := codec.decode([]byte(mustJSON(rec))); err == nil || !strings.Contains(err.Error(), "JSON") {
			t.Errorf("%s: JSON form: %v, want a refusal that says JSON", name, err)
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

func TestWALCodecRefusals(t *testing.T) {
	var codec walCodec
	for name, rec := range map[string]walRecord{
		"no variant":       {},
		"two variants":     {Epoch: &recEpoch{}, Tick: &recTick{}},
		"negative slot":    {Tick: &recTick{Slot: -1}},
		"negative counter": {Confirm: &recConfirm{Faults: rmproto.FaultCounters{StaleConfirms: -1}}},
		"negative grant":   {Tick: &recTick{Grants: []recGrant{{QID: "q-1", Grant: resource.New(-1, 0)}}}},
		// -1 shared would be stored as expiry+1 = 0, the per-grant escape.
		"negative expiry":    {Tick: &recTick{Grants: []recGrant{{QID: "q-1", Expiry: -1}, {QID: "q-2", Expiry: -1}}}},
		"oversized diff":     {PlanDiff: &recPlanDiff{Diff: &plan.Diff{NewRev: 1, NSlots: plan.MaxSlots + 1}}},
		"negative submit":    {AdHoc: &recAdHoc{Job: trace.AdHocRecord{ID: "a", SubmitSec: -5}}},
		"negative dep index": {Workflow: &recWorkflow{WF: trace.WorkflowRecord{Deps: [][2]int{{0, -1}}}}},
		"invalid diff":       {PlanDiff: &recPlanDiff{Diff: &plan.Diff{BaseRev: 1, NewRev: 9}}},
		"invalid plan":       {PlanRebase: &recPlanRebase{Plan: &plan.Plan{Rev: -1}}},
	} {
		if payload, err := codec.encode(&rec); err == nil {
			t.Errorf("%s: encoded to %x", name, payload)
		}
	}

	// tick assembles a tick at slot 1 with zero fault counters, no
	// requeues, and the given grants section.
	tick := func(grants ...byte) []byte {
		return append([]byte{tagTick, 1, 0, 0, 0, 0, 0, 0, 0, 0}, grants...)
	}
	confirm := func(qids ...byte) []byte {
		return append([]byte{tagConfirm, 1, 0, 0, 0, 0, 0, 0, 0}, qids...)
	}
	// Each accepted payload is one edit away from the refused ones below it.
	accepted := map[string][]byte{
		"two grants sharing an expiry": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0, // q-1, job "j", node "n", empty grant
			3, 1, 0, 1, 0, 0, 0, // q-2, both IDs the previous grant's
			1), // expiry 0 for both
		"two grants with their own expiries": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0,
			3, 1, 0, 1, 0, 0, 0,
			0, 5, 6),
		"two grants on two nodes": tick(2,
			3, 0, 1, 'j', 0, 2, 'n', '1', 0, 0,
			3, 1, 0, 1, 1, '2', 0, 0,
			1),
		"quantum ID q-1":             confirm(1, 3),
		"quantum ID literal":         confirm(1, 0, 3, 'q', '-', 'x'),
		"epoch 2 at slot 1":          {tagEpoch, 2, 1},
		"empty best-effort workflow": {tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"empty plan rebase":          append([]byte{tagPlanRebase}, `{"rev":1,"from":0,"n_slots":0}`...),
	}
	refused := map[string][]byte{
		"empty payload":                {},
		"unknown tag":                  {0x0a, 2, 1},
		"tag zero":                     {0x00, 2, 1},
		"trailing byte":                {tagEpoch, 2, 1, 0},
		"missing field":                {tagEpoch, 2},
		"non-minimal varint":           {tagEpoch, 0x82, 0x00, 1},
		"integer beyond int64":         append(append([]byte{tagEpoch}, bytes.Repeat([]byte{0xff}, 9)...), 1, 1),
		"grant count beyond the input": tick(0x7f, 1),
		"job prefix past the previous ID": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0,
			3, 2, 0, 1, 0, 0, 0,
			1),
		"node ID spelled out again": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0,
			3, 1, 0, 0, 1, 'n', 0, 0,
			1),
		"missing expiry": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0,
			3, 1, 0, 1, 0, 0, 0),
		"equal expiries stored per grant": tick(2,
			3, 0, 1, 'j', 0, 1, 'n', 0, 0,
			3, 1, 0, 1, 0, 0, 0,
			0, 5, 5),
		"quantum ID of the own form spelled out": confirm(1, 0, 3, 'q', '-', '7'),
		"quantum ID delta below zero":            confirm(1, 4),
		"quantum ID count beyond the input":      confirm(9, 3),
		"flag byte 2":                            {tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0},
		"torn diff":                              {tagPlanDiff, 0x02, 1, 0},
		"plan rebase with spaces":                append([]byte{tagPlanRebase}, `{"rev": 1, "from": 0, "n_slots": 0}`...),
		"plan rebase with an explicit empty":     append([]byte{tagPlanRebase}, `{"rev":1,"from":0,"n_slots":0,"jobs":{}}`...),
		"JSON payload":                           []byte(`{"epoch":{"epoch":2,"slot":1}}`),
		"JSON diff":                              append([]byte{tagPlanDiff}, `{"base_rev":1,"new_rev":2,"from":0,"n_slots":4}`...),
	}
	for name, ok := range accepted {
		if _, err := codec.decode(ok); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, bad := range refused {
		rec, err := codec.decode(bad)
		if err == nil {
			t.Errorf("%s: decoded to %s", name, mustJSON(rec))
		} else if strings.HasPrefix(name, "JSON") && !strings.Contains(err.Error(), "JSON") {
			t.Errorf("%s: refused with %q, which does not name the form", name, err)
		}
	}

	// A JSON record, a JSON diff and a version 1 snapshot each fail
	// recovery of the directory that holds them, with the same names.
	_, _, err := recoverFrom(t, [][]byte{refused["JSON payload"]}, 0)
	if err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("recovery over a JSON record: %v", err)
	}
	_, _, err = recoverFrom(t, [][]byte{refused["JSON diff"]}, 0)
	if err == nil || !strings.Contains(err.Error(), "JSON diff") {
		t.Errorf("recovery over a JSON diff: %v", err)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	v1 := fmt.Sprintf(`{"version":1,"slot_dur_ns":%d,"slot":3,"next_qid":0,"faults":{}}`, int64(slotDur))
	if err := st.WriteSnapshot([]byte(v1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = store.Open(store.Options{Dir: dir, Policy: store.SyncNever}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := New(streamingConfig(st, false)); err == nil || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Errorf("recovery over a version 1 snapshot: %v", err)
	}
}

// parentTick is a tick in the form before front-coded IDs, by hand: tag 3,
// slot 1, zero fault counters, no requeues, two grants behind their
// shared expiry (0, stored as 1), the second naming the first's job and
// node by position.
func parentTick() []byte {
	return []byte{tagTickBackRef, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1,
		3, 0, 1, 'j', 0, 1, 'n', 0, 0,
		3, 1, 2, 0, 0}
}

// parentDiff is a plan diff record in the form before front-coded IDs, by
// hand: diff tag 0x01, the header, one added job spelled out with one slot
// run, then θ — one kind, one level as raw IEEE-754 bits.
func parentDiff() []byte {
	w := binenc.Writer{Buf: []byte{tagPlanDiff}}
	w.Byte(0x01)
	w.Int(0)
	w.Int(0)
	w.Int(2)
	w.Uint(0)
	w.Uint(1)
	w.String("adhoc/ah00470")
	w.Bool(true)
	w.Int(0)
	w.Int(2)
	w.Uint(1)
	w.Int(0)
	w.Uint(1)
	w.Int(1)
	w.Int(512)
	w.Uint(1)
	w.String("vcores")
	w.Uint(1)
	return binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(0.5))
}

// TestPreviousJournalFormsRefused: state written before the plan lost θ
// and IDs were front-coded — a tag 3 tick, a tag 0x01 diff, a rebase plan
// with "theta", a version 2 snapshot, a snapshot plan with "theta" — is
// refused by recovery, by a follower's ingest and by -wal-dump, each time
// with an error naming the record, the form and that it predates the
// current one; nothing misreads it.
func TestPreviousJournalFormsRefused(t *testing.T) {
	thetaPlan := `{"rev":1,"from":0,"n_slots":0,"theta":{"vcores":[0.5]}}`
	records := map[string]struct {
		payload []byte
		want    []string
	}{
		"tick":        {parentTick(), []string{"tick record", "tag 3", "predates"}},
		"plan diff":   {parentDiff(), []string{"tag 0x01 diff", "θ", "predates"}},
		"plan rebase": {append([]byte{tagPlanRebase}, thetaPlan...), []string{"plan rebase", `"theta"`, "predates"}},
	}
	refused := func(what string, err error, want []string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", what)
			return
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not name %q", what, err, w)
			}
		}
	}
	for name, c := range records {
		_, _, err := recoverFrom(t, [][]byte{c.payload}, 0)
		refused(name+", recovery", err, append(c.want, "replay record 1/1"))

		follower := openStreamingRM(t, t.TempDir(), true)
		_, err = follower.IngestShipment(rmproto.ShipResponse{Epoch: 1, Gen: follower.store.Watermark().Gen, Records: [][]byte{c.payload}})
		refused(name+", follower ingest", err, append(c.want, "shipped record 1/1"))

		dir := t.TempDir()
		frame, err := store.EncodeRecord(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-000000000000.log"), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		refused(name+", -wal-dump", DumpWAL(dir, &out, io.Discard), append(c.want, "record 1/1"))
		if out.Len() != 0 {
			t.Errorf("%s, -wal-dump: printed %q before refusing", name, out.String())
		}
	}

	snap := func(version int) string {
		return fmt.Sprintf(`{"version":%d,"slot_dur_ns":%d,"slot":3,"next_qid":0,"faults":{},"plan":%s}`, version, int64(slotDur), thetaPlan)
	}
	for name, c := range map[string]struct {
		snapshot string
		want     []string
	}{
		"version 2 snapshot":          {snap(2), []string{"snapshot version 2", "θ", "predates"}},
		"snapshot plan with θ levels": {snap(snapVersion), []string{"snapshot plan", `"theta"`, "predates"}},
	} {
		dir := t.TempDir()
		st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot([]byte(c.snapshot)); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if st, err = store.Open(store.Options{Dir: dir, Policy: store.SyncNever}); err != nil {
			t.Fatal(err)
		}
		_, err = New(streamingConfig(st, false))
		st.Close()
		refused(name+", recovery", err, c.want)

		follower := openStreamingRM(t, t.TempDir(), true)
		_, err = follower.IngestShipment(rmproto.ShipResponse{Epoch: 1, SnapInstall: true, Gen: 1, Snapshot: []byte(c.snapshot)})
		refused(name+", follower ingest", err, append(c.want, "shipped snapshot"))
	}
}

// TestAdHocNegativeSubmitRefused: the one submission field nothing else
// validates (the live RM ignores an ad-hoc job's submit offset) is
// refused at the door, not at the journal — the codec stores no sign.
func TestAdHocNegativeSubmitRefused(t *testing.T) {
	rm := openStreamingRM(t, t.TempDir(), false)
	register(t, rm, "n1", 4, 8192)
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatal(err)
	}
	_, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{ID: "neg", SubmitSec: -1, Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 128}})
	if err == nil {
		t.Fatal("ad-hoc job with a negative submit offset accepted")
	}
	if st := rm.Status(); len(st.Jobs) != 0 {
		t.Fatalf("refused job left %d jobs behind", len(st.Jobs))
	}
}

// TestWrappingSecondsRefused: a second count that
// time.Duration(sec)*time.Second would wrap — -18446744073 s to +0.71 s,
// 18446744074 s to 0.29 s — is refused in every second field of either
// record, naming the field, before anything is journaled or admitted. The
// status stays as it was, a valid submission under the same ID is then
// accepted, and a restart from the log recovers exactly what was.
func TestWrappingSecondsRefused(t *testing.T) {
	dir := t.TempDir()
	rm := openStreamingRM(t, dir, false)
	register(t, rm, "n1", 8, 16*1024)
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatal(err)
	}
	refused := func(what, field string, err error, jobs int, records int64) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: %v, want a refusal naming %s", what, err, field)
		}
		if got := len(rm.Status().Jobs); got != jobs {
			t.Fatalf("%s: refused, and the RM holds %d jobs, want %d", what, got, jobs)
		}
		if got := rm.store.Watermark().Records; got != records {
			t.Fatalf("%s: refused, and the log went from %d to %d records", what, records, got)
		}
	}
	n := 0
	for _, sec := range []int64{-18446744073, 18446744074} {
		for field, edit := range map[string]func(*trace.WorkflowRecord){
			"submit_sec":          func(w *trace.WorkflowRecord) { w.SubmitSec = sec },
			"deadline_sec":        func(w *trace.WorkflowRecord) { w.DeadlineSec = sec },
			"task_dur_sec":        func(w *trace.WorkflowRecord) { w.Jobs[1].TaskDurSec = sec },
			"actual_task_dur_sec": func(w *trace.WorkflowRecord) { w.Jobs[0].ActualTaskDurSec = sec },
		} {
			n++
			wf := chainWorkflow(600)
			wf.ID = fmt.Sprintf("wf-%d", n)
			edit(&wf)
			jobs, records := len(rm.Status().Jobs), rm.store.Watermark().Records
			_, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf})
			refused(fmt.Sprintf("workflow with %s = %d", field, sec), field, err, jobs, records)
			wf = chainWorkflow(600)
			wf.ID = fmt.Sprintf("wf-%d", n)
			if resp, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil || !resp.Accepted {
				t.Fatalf("valid workflow %s after the refusal: %+v, %v", wf.ID, resp, err)
			}
		}
		for field, edit := range map[string]func(*trace.AdHocRecord){
			"submit_sec":   func(a *trace.AdHocRecord) { a.SubmitSec = sec },
			"task_dur_sec": func(a *trace.AdHocRecord) { a.TaskDurSec = sec },
		} {
			n++
			job := trace.AdHocRecord{ID: fmt.Sprintf("a-%d", n), Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 128}
			bad := job
			edit(&bad)
			jobs, records := len(rm.Status().Jobs), rm.store.Watermark().Records
			_, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: bad})
			refused(fmt.Sprintf("ad-hoc job with %s = %d", field, sec), field, err, jobs, records)
			if resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: job}); err != nil || !resp.Accepted {
				t.Fatalf("valid ad-hoc job %s after the refusal: %+v, %v", job.ID, resp, err)
			}
		}
	}
	back, _, err := recoverFrom(t, readWAL(t, dir), 0)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	sameJobTable(t, "the restarted RM", back.Status().Jobs, rm.Status().Jobs)
}

// TestWrappingSecondsRecoveryRefused: a log that holds a submission whose
// second count is past maxSec — one RMs before the refusal accepted and
// journaled as a wrapped duration — fails recovery, with an error naming
// the record, its job's ID and the field. The RM does not start on it.
func TestWrappingSecondsRecoveryRefused(t *testing.T) {
	var codec walCodec
	payload := func(rec walRecord) []byte {
		p, err := codec.encode(&rec)
		if err != nil {
			t.Fatalf("encode %s: %v", mustJSON(rec), err)
		}
		return append([]byte(nil), p...)
	}
	ok := payload(walRecord{AdHoc: &recAdHoc{Slot: 1,
		Job: trace.AdHocRecord{ID: "fine", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 128}}})
	for name, c := range map[string]struct {
		rec  walRecord
		want []string
	}{
		"ad-hoc": {walRecord{AdHoc: &recAdHoc{Slot: 1,
			Job: trace.AdHocRecord{ID: "wrapped", Tasks: 1, TaskDurSec: 18446744074, DemandVCores: 1, DemandMemMB: 128}}},
			[]string{"replay record 2/2", "ad-hoc wrapped", "task_dur_sec = 18446744074"}},
		"workflow": {walRecord{Workflow: &recWorkflow{Slot: 1, DeadlineNS: int64(time.Hour), Windows: []recWindow{{DeadlineNS: int64(time.Hour), MinSlots: 1}},
			WF: trace.WorkflowRecord{ID: "wrapped", DeadlineSec: 3600,
				Jobs: []trace.JobRecord{{Name: "a", Tasks: 1, TaskDurSec: 10, ActualTaskDurSec: 18446744074, DemandVCores: 1, DemandMemMB: 128}}}}},
			[]string{"replay record 2/2", "workflow wrapped", "actual_task_dur_sec = 18446744074"}},
	} {
		rm, _, err := recoverFrom(t, [][]byte{ok, payload(c.rec)}, 0)
		if err == nil {
			t.Errorf("%s: recovered %d jobs over a wrapping record", name, len(rm.Status().Jobs))
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: recovery failed with %q, which does not name %q", name, err, w)
			}
		}
	}
}

// TestWALRecordSizes is the rot guard on the journal's byte cost: exact
// ceilings on canonical records (the JSON form's size, logged beside
// each, is what the binary codec replaced).
func TestWALRecordSizes(t *testing.T) {
	tick := &recTick{Slot: 36, Faults: rmproto.FaultCounters{PlanDiffsApplied: 12}}
	for i := 0; i < 16; i++ {
		tick.Grants = append(tick.Grants, recGrant{
			QID: fmt.Sprintf("q-%d", 627+i), JobID: fmt.Sprintf("wf0001/TeraSort-%d#%d", i*3/16, i*3/16),
			NodeID: fmt.Sprintf("n%03d", i%8), Grant: resource.New(8, 32768), Expiry: 35 + 16,
		})
	}
	// The shape adhoc-burst's ticks have: a burst of ad-hoc jobs with
	// consecutive IDs, each spread over a few of the nodes.
	burst := &recTick{Slot: 180, Faults: rmproto.FaultCounters{PlanDiffsApplied: 40}}
	for i := 0; i < 30; i++ {
		burst.Grants = append(burst.Grants, recGrant{
			QID: fmt.Sprintf("q-%d", 5210+i), JobID: fmt.Sprintf("adhoc/ah%05d", 470+i*12/30),
			NodeID: fmt.Sprintf("n%02d", i%8), Grant: resource.New(2, 4096), Expiry: 183,
		})
	}
	var codec walCodec
	for _, c := range []struct {
		name    string
		rec     walRecord
		ceiling int
	}{
		{"16-grant tick over 3 jobs x 8 nodes", walRecord{Tick: tick}, 210},
		{"30-grant tick over 12 adhoc/ah00... jobs x 8 nodes", walRecord{Tick: burst}, 325},
		{"6-qid confirm", canonicalRecord("confirm"), 32},
		{"ad-hoc submission", canonicalRecord("adhoc"), 40},
		{"10-job x 12-slot diff", walRecord{PlanDiff: &recPlanDiff{Diff: canonicalDiff(10, 12)}}, 640},
	} {
		payload, err := codec.encode(&c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d B (JSON form: %d B)", c.name, len(payload), len(mustJSON(c.rec)))
		if len(payload) > c.ceiling {
			t.Errorf("%s encodes to %d B, ceiling %d B", c.name, len(payload), c.ceiling)
		}
	}
}

// TestWALDump: the dump of a recorded run is one parseable JSON object
// per journaled record, and leaves a torn tail alone.
func TestWALDump(t *testing.T) {
	live, payloads := recordMixedRun(t)
	dir := live.store.Dir()
	var out, diag bytes.Buffer
	if err := DumpWAL(dir, &out, &diag); err != nil {
		t.Fatalf("DumpWAL: %v\n%s", err, diag.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if want := live.Status().Durability.WALRecords; int64(len(lines)) != want || len(lines) != len(payloads) {
		t.Fatalf("dump has %d lines, the store journaled %d records (%d on disk)", len(lines), want, len(payloads))
	}
	var codec walCodec
	advances, dispatches := 0, 0
	for i, line := range lines {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil || len(obj) != 1 {
			t.Fatalf("line %d is not one JSON object with one key: %v\n%s", i+1, err, line)
		}
		// A tick record says whether it moved the slot; one that did not is
		// a heartbeat's dispatch, directly behind that heartbeat's confirms.
		if tick, ok := obj["tick"]; ok {
			var flag struct {
				Advance *bool `json:"advance"`
			}
			if err := json.Unmarshal(tick, &flag); err != nil || flag.Advance == nil {
				t.Fatalf("line %d: tick without an advance flag: %s", i+1, line)
			}
			if *flag.Advance {
				advances++
			} else if dispatches++; !strings.HasPrefix(lines[i-1], `{"confirm":`) {
				t.Fatalf("line %d: a tick record that does not advance follows %s", i+1, lines[i-1])
			}
		}
		fromDisk, _ := codec.decode(payloads[i])
		if _, ok := obj[variantOf(&fromDisk)]; !ok {
			t.Fatalf("line %d is not the %s record on disk:\n%s", i+1, variantOf(&fromDisk), line)
		}
	}
	if want := live.Status().Slot; int64(advances) != want || dispatches == 0 {
		t.Errorf("dump shows %d slot advances and %d heartbeat dispatches, want %d and some", advances, dispatches, want)
	}

	// A directory a killed RM left: whole records, then a torn frame.
	old := t.TempDir()
	var log []byte
	for _, p := range payloads[:5] {
		frame, _ := store.EncodeRecord(p)
		log = append(log, frame...)
	}
	clean := len(log)
	log = append(log, 0xff, 0x00, 0x00)
	path := filepath.Join(old, "wal-000000000003.log")
	if err := os.WriteFile(path, log, 0o444); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	diag.Reset()
	if err := DumpWAL(old, &out, &diag); err != nil {
		t.Fatalf("DumpWAL: %v", err)
	}
	if got := out.String(); got != strings.Join(lines[:5], "\n")+"\n" {
		t.Errorf("dump of the first five records:\n%s", got)
	}
	if !strings.Contains(diag.String(), fmt.Sprintf("offset %d", clean)) {
		t.Errorf("torn tail at offset %d not reported:\n%s", clean, diag.String())
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, log) {
		t.Error("the dump modified the segment")
	}
}

// walFuzzSeeds are FuzzDecodeWALRecord's seeds: every canonical record
// (so every variant) and a count far beyond its input.
func walFuzzSeeds(tb testing.TB) [][]byte {
	var codec walCodec
	var seeds [][]byte
	for _, c := range canonicalRecords() {
		payload, err := codec.encode(&c.rec)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, append([]byte{}, payload...))
	}
	// A grant count far beyond the input, and the two records whose form
	// is refused by its tag: a tick that back-references its IDs and a
	// diff with θ levels.
	return append(seeds, []byte{tagTick, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		parentTick(), parentDiff())
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the record decoder. It
// must never panic. An accepted payload re-encodes to exactly itself and
// its plan diff, if it is one, validates. (That decoding allocates
// O(len(input)) is TestDecodeWALRecordAllocation's to check.)
func FuzzDecodeWALRecord(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var codec walCodec
		rec, err := codec.decode(data)
		if err != nil {
			return
		}
		if rec.PlanDiff != nil {
			if verr := rec.PlanDiff.Diff.Validate(); verr != nil {
				t.Fatalf("accepted a record with an invalid diff: %v", verr)
			}
		}
		if re, err := codec.encode(&rec); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical (%v):\n in %x\nout %x", err, data, re)
		}
	})
}

// TestDecodeWALRecordAllocation holds the record decoder to allocating
// O(len(input)): over the fuzz seeds and over payloads that claim, at each
// count and length the format has, far more than their bytes could hold.
func TestDecodeWALRecordAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<24)
	claim := func(prefix ...byte) []byte { return append(prefix, huge...) }
	faults := make([]byte, 7)
	inputs := append(walFuzzSeeds(t),
		claim(tagWorkflow),                                                  // the workflow ID's length
		claim(tagWorkflow, 0, 0, 0),                                         // jobs
		claim(tagWorkflow, 0, 0, 0, 0),                                      // deps
		claim(tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 0),                       // windows
		claim(append([]byte{tagTick, 1}, faults...)...),                     // requeued quantum IDs
		claim(append(append([]byte{tagTick, 1}, faults...), 0)...),          // grants
		claim(append(append([]byte{tagTick, 1}, faults...), 0, 1, 3, 0)...), // a grant's job ID length
		claim(append([]byte{tagConfirm, 1}, faults...)...),                  // confirmed quantum IDs
		claim(append(append([]byte{tagConfirm, 1}, faults...), 1, 0)...),    // a literal quantum ID's length
		claim(append([]byte{tagRequeue}, faults...)...),
		claim(tagPlanDiff, 0x02, 1, 0, 4), // the diff's removes
	)
	var codec walCodec
	for i, in := range inputs {
		// The factor covers a one-byte element decoding into a ~100-byte
		// struct; the allowance the decoder's fixed set-up.
		budget := uint64(len(in))*256 + 32<<10
		if got := allocatedBytes(func() { codec.decode(in) }); got > budget {
			t.Errorf("input %d: decoding %d bytes allocated %d, budget %d\n%x", i, len(in), got, budget, in)
		}
	}
}

// allocatedBytes reports the heap bytes f allocates. The counter is
// process-wide, so the smallest of three readings is taken: another
// goroutine's allocations do not repeat, a decoder that trusts a claimed
// count does.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	return best
}
