package rmserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// The record tags as the journal format fixes them (rmstate's walcodec.go):
// the payloads below are spelled out byte by byte.
const (
	tagWorkflow byte = 1 + iota
	tagAdHoc
	tagTickBackRef // the tick before front-coded IDs; refused
	_              // the confirm with fault counters; refused
	_              // the requeue with fault counters; refused
	_              // the epoch with a slot; refused
	tagPlanDiff    // the plan diff; refused
	tagPlanRebase  // the plan rebase; refused
	_              // the tick with fault counters; refused
	tagTick
	tagConfirm
	tagRequeue
	tagEpoch
)

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
// throughout on three nodes, under FlowTime with leases expiring after
// three slots; n1 restarts at slot 7 holding leases (a requeue record) and
// wedges from slot 10 until its leases expire (ticks with requeues); every
// record ships to a warm standby, which is then promoted with leases in
// flight (its epoch and requeue records) and keeps scheduling. The
// standby's log is the run's.
func recordMixedRun(tb testing.TB) (*Server, [][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(18))
	nodes := []string{"n1", "n2", "n3"}
	submit := func(rm *Server, slot int) {
		if slot%4 == 0 {
			wf := chainWorkflow(int64(200 + rng.Intn(400)))
			wf.ID = fmt.Sprintf("wf-%d", slot)
			if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: wf}); err != nil {
				tb.Fatalf("SubmitWorkflow: %v", err)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			submitAdHoc(tb, rm, fmt.Sprintf("a%d-%d", slot, i), 1+rng.Intn(3), int64(10*(1+rng.Intn(2))))
		}
	}
	d := &durable{dir: tb.TempDir(), policy: store.SyncNever}
	primary := newCluster(tb, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true, LeaseExpiry: 3}, &durable{policy: store.SyncNever})
	standby := newCluster(tb, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true, LeaseExpiry: 3, Follower: true}, d)
	for _, n := range nodes {
		primary.register(n, 4, 8*1024)
	}
	slot := 0
	for ; slot < 18; slot++ {
		submit(primary.rm, slot)
		if slot == 7 {
			primary.register("n1", 4, 8*1024) // restarted with empty hands
		}
		primary.wedged["n1"] = slot >= 10 && slot < 16
		primary.step()
		pumpRepl(tb, primary.rm, standby.rm)
	}
	if resp, err := standby.rm.Promote(); err != nil || resp.OrphanLeasesRequeued == 0 {
		tb.Fatalf("Promote = %+v, %v; want orphan leases requeued", resp, err)
	}
	for _, n := range nodes {
		standby.register(n, 4, 8*1024)
	}
	for ; slot < 26; slot++ {
		submit(standby.rm, slot)
		standby.step()
	}
	return standby.rm, readWAL(tb, d.dir)
}

func variantOf(rec *rmstate.Record) string {
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
	rm, err := New(Config{SlotDur: slotDur, Scheduler: core.New(core.DefaultConfig()), Store: st, AdHocGate: true, LeaseExpiry: 3})
	return rm, st.Recovery(), err
}

func snapshotOf(tb testing.TB, rm *Server) []byte {
	tb.Helper()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	snap, err := rm.st.Snapshot()
	if err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestWALCodecReplayEquivalence: the journal of a run through a promotion
// holds every record variant, and replays to the server that wrote it.
func TestWALCodecReplayEquivalence(t *testing.T) {
	live, binary := recordMixedRun(t)

	var codec rmstate.Codec
	seen := map[string]int{}
	tickRequeues := 0
	for i, p := range binary {
		rec, err := codec.Decode(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		seen[variantOf(&rec)]++
		if rec.Tick != nil {
			tickRequeues += len(rec.Tick.Requeued)
		}
	}
	for _, v := range []string{"wf", "adhoc", "tick", "confirm", "requeue"} {
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
		rec, _ := codec.Decode(p)
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
			if _, err := codec.Decode(bad); err == nil {
				t.Errorf("%s record %s by one byte decodes", v, name)
			}
		}
	}
}

// namedRecord is a rmstate.Record with a label for test output.
type namedRecord struct {
	name string
	rec  rmstate.Record
}

// canonicalRecords is one value per record variant, plus the shapes only
// a hand-built record has: quantum IDs out of issue order, grants whose
// expiries differ, and the extremes of the integer range.
func canonicalRecords() []namedRecord {
	return []namedRecord{
		{"workflow", rmstate.Record{Workflow: &rmstate.RecWorkflow{WF: chainWorkflow(600), SubmitNS: 50e9, DeadlineNS: 650e9, Slot: 5, BestEffort: true,
			Windows: []rmstate.RecWindow{{ReleaseNS: 50e9, DeadlineNS: 300e9, MinSlots: 3}, {ReleaseNS: 300e9, DeadlineNS: 650e9, MinSlots: 3}}}}},
		{"workflow, empty", rmstate.Record{Workflow: &rmstate.RecWorkflow{}}},
		{"adhoc", rmstate.Record{AdHoc: &rmstate.RecAdHoc{Job: trace.AdHocRecord{ID: "burst-0123-07", Tasks: 3, TaskDurSec: 120, DemandVCores: 2, DemandMemMB: 4096}, Slot: 123}}},
		{"tick", rmstate.Record{Tick: &rmstate.RecTick{Slot: 36, Requeued: []rmproto.QuantumNum{10, 9},
			Grants: []rmstate.RecGrant{
				{QID: 627, JobID: "wf0001/TeraSort-1#1", NodeID: "n000", Grant: resource.New(8, 32768), Expiry: 51},
				{QID: 628, JobID: "wf0001/TeraSort-1#1", NodeID: "n001", Grant: resource.New(6, 1024), Expiry: 51},
				{QID: 629, JobID: "adhoc/a-1", NodeID: "n001", Grant: resource.New(1, 512), Expiry: 51},
			}}}},
		{"tick, idle", rmstate.Record{Tick: &rmstate.RecTick{Slot: 1}}},
		{"tick, odd expiries", rmstate.Record{Tick: &rmstate.RecTick{Slot: math.MaxInt64, Grants: []rmstate.RecGrant{
			{QID: 9223372036854775807, JobID: "j", NodeID: "j", Expiry: 0},
			{QID: 0, JobID: "", NodeID: "n", Expiry: math.MaxInt64},
			{QID: 5, JobID: "j", NodeID: "", Grant: resource.New(math.MaxInt64, 0), Expiry: 7},
		}}}},
		{"tick, expiry at the top of the range", rmstate.Record{Tick: &rmstate.RecTick{Grants: []rmstate.RecGrant{
			{QID: 1, JobID: "j", NodeID: "n", Expiry: math.MaxInt64}, {QID: 2, JobID: "j", NodeID: "n", Expiry: math.MaxInt64}}}}},
		{"confirm", rmstate.Record{Confirm: &rmstate.RecConfirm{Slot: 300, QIDs: []rmproto.QuantumNum{13960, 13961, 13964, 13962, 13970, 13971}}}},
		{"requeue", rmstate.Record{Requeue: &rmstate.RecRequeue{QIDs: []rmproto.QuantumNum{100, 98, 99}}}},
		{"epoch", rmstate.Record{Epoch: &rmstate.RecEpoch{Epoch: 2}}},
	}
}

// Records that carry quantum IDs not of the server's own form, as the
// codec journaled them while it spelled such an ID out as a literal: a
// tick at slot 36 requeuing "q-10", "q-9", "lease/x" and "q-007" and
// granting q-627, and a tick at slot 1 granting q-0 and "". A record holds
// quantum numbers only now, and refuses them.
const (
	literalRequeues = "\n$\x04\x15\x02\x00\alease/x\x00\x05q-007\x01\xd5\t\x00\x13wf0001/TeraSort-1#1\x00\x04n000\b\x80\x80\x024"
	literalGrant    = "\n\x01\x00\x02\x01\x00\x00\x00\x01n\x00\x00\x00\x00\x00\x01j\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x03\a"
)

func canonicalRecord(name string) rmstate.Record {
	for _, c := range canonicalRecords() {
		if c.name == name {
			return c.rec
		}
	}
	panic("no canonical record " + name)
}

// planDiffRecord is d behind tag 7 and planRebaseRecord p behind tag 8 —
// the plan as its diff from the empty plan one revision below it — in the
// form the journal held the scheduler's plan in, which it no longer reads.
func planDiffRecord(tb testing.TB, d *plan.Diff) []byte {
	tb.Helper()
	payload, err := plan.AppendDiff([]byte{tagPlanDiff}, d)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

func planRebaseRecord(tb testing.TB, p *plan.Plan) []byte {
	tb.Helper()
	payload, err := plan.AppendDiff([]byte{tagPlanRebase}, plan.Compute(&plan.Plan{Rev: p.Rev - 1}, p))
	if err != nil {
		tb.Fatal(err)
	}
	return payload
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

// canonicalPlan is a plan of one job over two slots.
func canonicalPlan() *plan.Plan {
	return &plan.Plan{Rev: 4, From: 18, NSlots: 2, Jobs: map[string]plan.Job{
		"adhoc/ah00470": {Window: plan.Window{Rel: 18, Dl: 20}, Alloc: []resource.Vector{resource.New(1, 512), {}}}}}
}

func TestWALCodecRoundTrip(t *testing.T) {
	var codec rmstate.Codec
	for _, c := range canonicalRecords() {
		name, rec := c.name, c.rec
		payload, err := codec.Encode(&rec)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		payload = append([]byte{}, payload...)
		got, err := codec.Decode(payload)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: decode∘encode is not the identity:\n%s\n%s", name, mustJSON(got), mustJSON(rec))
		}
		if re, err := codec.Encode(&got); err != nil || !bytes.Equal(re, payload) {
			t.Errorf("%s: encode∘decode is not the identity (%v):\n%x\n%x", name, err, payload, re)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := codec.Decode(payload[:n]); err == nil {
				t.Errorf("%s: payload torn at %d/%d bytes decodes", name, n, len(payload))
			}
		}
		// The JSON form of the same record, which RMs before the codec
		// journaled, is refused by name.
		if _, err := codec.Decode([]byte(mustJSON(rec))); err == nil || !strings.Contains(err.Error(), "JSON") {
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
	var codec rmstate.Codec
	for name, rec := range map[string]rmstate.Record{
		"no variant":              {},
		"two variants":            {Epoch: &rmstate.RecEpoch{}, Tick: &rmstate.RecTick{}},
		"negative slot":           {Tick: &rmstate.RecTick{Slot: -1}},
		"negative epoch":          {Epoch: &rmstate.RecEpoch{Epoch: -1}},
		"negative grant":          {Tick: &rmstate.RecTick{Grants: []rmstate.RecGrant{{QID: 1, Grant: resource.New(-1, 0)}}}},
		"negative quantum number": {Confirm: &rmstate.RecConfirm{QIDs: []rmproto.QuantumNum{1, -1}}},
		// -1 shared would be stored as expiry+1 = 0, the per-grant escape.
		"negative expiry":    {Tick: &rmstate.RecTick{Grants: []rmstate.RecGrant{{QID: 1, Expiry: -1}, {QID: 2, Expiry: -1}}}},
		"negative submit":    {AdHoc: &rmstate.RecAdHoc{Job: trace.AdHocRecord{ID: "a", SubmitSec: -5}}},
		"negative dep index": {Workflow: &rmstate.RecWorkflow{WF: trace.WorkflowRecord{Deps: [][2]int{{0, -1}}}}},
	} {
		if payload, err := codec.Encode(&rec); err == nil {
			t.Errorf("%s: encoded to %x", name, payload)
		}
	}

	// tick assembles a tick at slot 1 with no requeues and the given
	// grants section.
	tick := func(grants ...byte) []byte {
		return append([]byte{tagTick, 1, 0}, grants...)
	}
	confirm := func(qids ...byte) []byte {
		return append([]byte{tagConfirm, 1}, qids...)
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
		"epoch 2":                    {tagEpoch, 2},
		"empty best-effort workflow": {tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0},
	}
	refused := map[string][]byte{
		"empty payload":                {},
		"unknown tag":                  {0x7f, 2},
		"tag zero":                     {0x00, 2},
		"trailing byte":                {tagEpoch, 2, 0},
		"missing field":                {tagEpoch},
		"non-minimal varint":           {tagEpoch, 0x82, 0x00},
		"integer beyond int64":         append(append([]byte{tagEpoch}, bytes.Repeat([]byte{0xff}, 9)...), 1),
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
		"literal quantum ID in a record":         confirm(1, 0, 3, 'q', '-', 'x'),
		"quantum ID of the own form spelled out": confirm(1, 0, 3, 'q', '-', '7'),
		"quantum ID delta below zero":            confirm(1, 4),
		"quantum ID count beyond the input":      confirm(9, 3),
		"flag byte 2":                            {tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0},
		"empty plan rebase":                      {tagPlanRebase, 0x02, 0, 0, 0, 0, 0},
		"torn diff":                              {tagPlanDiff, 0x02, 1, 0},
		"torn plan rebase":                       {tagPlanRebase, 0x02, 0, 0, 0, 0},
		"JSON payload":                           []byte(`{"epoch":{"epoch":2}}`),
	}
	for name, ok := range accepted {
		if _, err := codec.Decode(ok); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, bad := range refused {
		rec, err := codec.Decode(bad)
		if err == nil {
			t.Errorf("%s: decoded to %s", name, mustJSON(rec))
		} else if strings.HasPrefix(name, "JSON") && !strings.Contains(err.Error(), "JSON") {
			t.Errorf("%s: refused with %q, which does not name the form", name, err)
		}
	}

	// A JSON record and a version 1 snapshot each fail recovery of the
	// directory that holds them, with the same names; so do a snapshot
	// whose workflow entry is no workflow's admission record and one with
	// a lease on no job it holds, as a follower's install too.
	_, _, err := recoverFrom(t, [][]byte{refused["JSON payload"]}, 0)
	if err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("recovery over a JSON record: %v", err)
	}
	snap := func(version int, rest string) string {
		return fmt.Sprintf(`{"version":%d,"slot_dur_ns":%d,"slot":1,"next_qid":2%s}`, version, int64(slotDur), rest)
	}
	for name, c := range map[string]struct{ snapshot, want string }{
		"a version 1 snapshot":     {snap(1, ""), "snapshot version 1"},
		"an epoch as a workflow":   {snap(7, `,"workflows":[{"record":`+mustJSON(accepted["epoch 2"])+`,"jobs":[]}]`), "not the admission record of a new workflow"},
		"a lease on an absent job": {snap(7, `,"leases":`+mustJSON(accepted["two grants sharing an expiry"])), "snapshot lease q-1 references unknown job j"},
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
		if _, err := New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), Store: st}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("recovery over %s: %v", name, err)
		}
		st.Close()
		follower := newCluster(t, Config{Follower: true}, &durable{}).rm
		_, err = follower.IngestShipment(rmproto.ShipResponse{Epoch: 1, SlotDurNS: int64(slotDur), SnapInstall: true, Gen: 1, Snapshot: []byte(c.snapshot)})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("follower install of %s: %v", name, err)
		}
	}
}

// Records in the form that carried fault counters (and an epoch's slot),
// as that codec encoded them: a tick at slot 5 requeuing q-3 and granting
// q-7 to adhoc/a on n1, a confirm of q-4 and q-5 at slot 5, a requeue of
// q-6 — each with the counters {3 requeued, 1 expired, 2 stale} — and
// epoch 2 at slot 9.
const (
	faultsTick    = "\t\x05\x03\x01\x00\x02\x00\x00\x00\x01\a\x01\t\x00\aadhoc/a\x00\x02n1\x01\x80\x02\b"
	faultsConfirm = "\x04\x05\x03\x01\x00\x02\x00\x00\x00\x02\t\x03"
	faultsRequeue = "\x05\x03\x01\x00\x02\x00\x00\x00\x01\r"
	slotEpoch     = "\x06\x02\t"
)

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

// TestPreviousJournalFormsRefused: state written in an earlier form — a
// plan diff or plan rebase record (tags 7 and 8), in its last binary form
// or an earlier one, and a version 6 snapshot, which held the live plan; a
// rebase record holding a JSON plan and a version 5 snapshot, which held
// its plan as JSON; a tick, confirm or requeue carrying fault counters
// (tags 9, 4, 5), an epoch carrying a slot (tag 6), a version 4 snapshot,
// which held jobs and leases in a schema of their own, a version 3
// snapshot, and from before the plan lost θ and IDs were front-coded a tag
// 3 tick, a tag 0x01 diff, a rebase plan with "theta", a version 2
// snapshot and a snapshot plan with "theta" — is refused by recovery, by a
// follower's ingest and by -wal-dump, each time with an error naming the
// record and the form; nothing misreads it. A plan record is refused by
// its tag whatever it holds, θ levels and JSON included.
func TestPreviousJournalFormsRefused(t *testing.T) {
	thetaPlan := `{"rev":1,"from":0,"n_slots":0,"theta":{"vcores":[0.5]}}`
	planDiffRefusal := []string{"plan diff record", "tag 7", "journaled the scheduler's plan", "no longer read"}
	planRebaseRefusal := []string{"plan rebase record", "tag 8", "journaled the scheduler's plan", "no longer read"}
	records := map[string]struct {
		payload []byte
		want    []string
	}{
		"tick with fault counters":    {[]byte(faultsTick), []string{"tick record", "tag 9", "fault counters", "no longer read"}},
		"confirm with fault counters": {[]byte(faultsConfirm), []string{"confirm record", "tag 4", "fault counters", "no longer read"}},
		"requeue with fault counters": {[]byte(faultsRequeue), []string{"requeue record", "tag 5", "fault counters", "no longer read"}},
		"epoch with a slot":           {[]byte(slotEpoch), []string{"epoch record", "tag 6", "slot", "no longer read"}},
		"tick":                        {parentTick(), []string{"tick record", "tag 3", "predates"}},
		"plan diff":                   {parentDiff(), planDiffRefusal},
		"plan rebase":                 {append([]byte{tagPlanRebase}, thetaPlan...), planRebaseRefusal},
		"plan rebase, JSON":           {append([]byte{tagPlanRebase}, `{"rev":1,"from":0,"n_slots":0}`...), planRebaseRefusal},
		"plan diff, JSON":             {append([]byte{tagPlanDiff}, `{"base_rev":1,"new_rev":2,"from":0,"n_slots":4}`...), planDiffRefusal},
		"plan diff, binary":           {planDiffRecord(t, canonicalDiff(2, 3)), planDiffRefusal},
		"plan rebase, binary":         {planRebaseRecord(t, canonicalPlan()), planRebaseRefusal},
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

		follower := newCluster(t, Config{Follower: true}, &durable{}).rm
		_, err = follower.IngestShipment(rmproto.ShipResponse{Epoch: 1, SlotDurNS: int64(slotDur), Gen: follower.store.Watermark().Gen, Records: [][]byte{c.payload}})
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
		return fmt.Sprintf(`{"version":%d,"slot_dur_ns":%d,"slot":3,"next_qid":0,"plan":%s}`, version, int64(slotDur), thetaPlan)
	}
	for name, c := range map[string]struct {
		snapshot string
		want     []string
	}{
		"version 4 snapshot":          {snap(4), []string{"snapshot version 4", "jobs and leases", "schema of their own", "no longer read"}},
		"version 3 snapshot":          {snap(3), []string{"snapshot version 3", "fault counters", "in-flight", "no longer read"}},
		"version 2 snapshot":          {snap(2), []string{"snapshot version 2", "θ", "predates"}},
		"snapshot plan with θ levels": {snap(5), []string{"snapshot version 5", "plan as JSON", "no longer read"}},
		"version 5 snapshot":          {strings.Replace(snap(5), thetaPlan, `{"rev":1,"from":0,"n_slots":0}`, 1), []string{"snapshot version 5", "plan as JSON", "no longer read"}},
		"JSON plan in a version 6 snapshot": {
			fmt.Sprintf(`{"version":6,"slot_dur_ns":%d,"slot":3,"next_qid":0,"plan":%s}`, int64(slotDur), mustJSON(append([]byte{tagPlanRebase}, thetaPlan...))),
			[]string{"snapshot version 6", "held the live plan", "no longer read"}},
		"version 6 snapshot": {
			fmt.Sprintf(`{"version":6,"slot_dur_ns":%d,"slot":3,"next_qid":0,"plan":%s}`, int64(slotDur), mustJSON(planRebaseRecord(t, canonicalPlan()))),
			[]string{"snapshot version 6", "held the live plan", "no longer read"}},
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
		_, err = New(Config{SlotDur: slotDur, Scheduler: sched.NewFIFO(), Store: st})
		st.Close()
		refused(name+", recovery", err, c.want)

		follower := newCluster(t, Config{Follower: true}, &durable{}).rm
		_, err = follower.IngestShipment(rmproto.ShipResponse{Epoch: 1, SlotDurNS: int64(slotDur), SnapInstall: true, Gen: 1, Snapshot: []byte(c.snapshot)})
		refused(name+", follower ingest", err, append(c.want, "shipped snapshot"))
	}
}

// TestAdHocNegativeSubmitRefused: the one submission field nothing else
// validates (the live RM ignores an ad-hoc job's submit offset) is
// refused at the door, not at the journal — the codec stores no sign.
func TestAdHocNegativeSubmitRefused(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{policy: store.SyncNever})
	rm := c.rm
	c.register("n1", 4, 8192)
	c.tick()
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
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig()), AdHocGate: true}, &durable{dir: dir, policy: store.SyncNever})
	rm := c.rm
	c.register("n1", 8, 16*1024)
	c.tick()
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
	var codec rmstate.Codec
	payload := func(rec rmstate.Record) []byte {
		p, err := codec.Encode(&rec)
		if err != nil {
			t.Fatalf("encode %s: %v", mustJSON(rec), err)
		}
		return append([]byte(nil), p...)
	}
	ok := payload(rmstate.Record{AdHoc: &rmstate.RecAdHoc{Slot: 1,
		Job: trace.AdHocRecord{ID: "fine", Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 128}}})
	for name, c := range map[string]struct {
		rec  rmstate.Record
		want []string
	}{
		"ad-hoc": {rmstate.Record{AdHoc: &rmstate.RecAdHoc{Slot: 1,
			Job: trace.AdHocRecord{ID: "wrapped", Tasks: 1, TaskDurSec: 18446744074, DemandVCores: 1, DemandMemMB: 128}}},
			[]string{"replay record 2/2", "ad-hoc wrapped", "task_dur_sec = 18446744074"}},
		"workflow": {rmstate.Record{Workflow: &rmstate.RecWorkflow{Slot: 1, DeadlineNS: int64(time.Hour), Windows: []rmstate.RecWindow{{DeadlineNS: int64(time.Hour), MinSlots: 1}},
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
	tick := &rmstate.RecTick{Slot: 36}
	for i := 0; i < 16; i++ {
		tick.Grants = append(tick.Grants, rmstate.RecGrant{
			QID: rmproto.QuantumNum(627 + i), JobID: fmt.Sprintf("wf0001/TeraSort-%d#%d", i*3/16, i*3/16),
			NodeID: fmt.Sprintf("n%03d", i%8), Grant: resource.New(8, 32768), Expiry: 35 + 16,
		})
	}
	// The shape adhoc-burst's ticks have: a burst of ad-hoc jobs with
	// consecutive IDs, each spread over a few of the nodes.
	burst := &rmstate.RecTick{Slot: 180}
	for i := 0; i < 30; i++ {
		burst.Grants = append(burst.Grants, rmstate.RecGrant{
			QID: rmproto.QuantumNum(5210 + i), JobID: fmt.Sprintf("adhoc/ah%05d", 470+i*12/30),
			NodeID: fmt.Sprintf("n%02d", i%8), Grant: resource.New(2, 4096), Expiry: 183,
		})
	}
	var codec rmstate.Codec
	for _, c := range []struct {
		name    string
		rec     rmstate.Record
		ceiling int
	}{
		{"16-grant tick over 3 jobs x 8 nodes", rmstate.Record{Tick: tick}, 203},
		{"30-grant tick over 12 adhoc/ah00... jobs x 8 nodes", rmstate.Record{Tick: burst}, 318},
		{"6-qid confirm", canonicalRecord("confirm"), 25},
		{"ad-hoc submission", canonicalRecord("adhoc"), 40},
	} {
		payload, err := codec.Encode(&c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d B (JSON form: %d B)", c.name, len(payload), len(mustJSON(c.rec)))
		if len(payload) > c.ceiling {
			t.Errorf("%s encodes to %d B, ceiling %d B", c.name, len(payload), c.ceiling)
		}
	}
}

// TestJournalBytesPinned pins the bytes the journal holds: the SHA-256
// of the canonical records' payloads, and that of the mixed run's WAL
// payloads, each payload behind its length. A change to the codec, or to
// what the RM decides and in which order it lists it, moves one of them.
func TestJournalBytesPinned(t *testing.T) {
	digest := func(payloads [][]byte) string {
		h := sha256.New()
		for _, p := range payloads {
			h.Write(binary.AppendUvarint(nil, uint64(len(p))))
			h.Write(p)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	var codec rmstate.Codec
	var canonical [][]byte
	for _, c := range canonicalRecords() {
		payload, err := codec.Encode(&c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		canonical = append(canonical, append([]byte{}, payload...))
	}
	_, run := recordMixedRun(t)
	for name, c := range map[string]struct{ got, want string }{
		"canonical records": {digest(canonical), "59d0766e29cbb3641cff54a8f16c4055c453b290ce57ae9182f613a328803189"},
		"mixed run":         {digest(run), "572d3ad3b0018a15b279cab87a07c237b5a39ee17323000071cfab475a23a58d"},
	} {
		if c.got != c.want {
			t.Errorf("%s: journal bytes moved: SHA-256 %s, pinned %s", name, c.got, c.want)
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
	var codec rmstate.Codec
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
		fromDisk, _ := codec.Decode(payloads[i])
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
// (so every variant), a count far beyond its input, the records with
// literal quantum IDs and the refused old forms, the plan records among
// them.
func walFuzzSeeds(tb testing.TB) [][]byte {
	var codec rmstate.Codec
	var seeds [][]byte
	for _, c := range canonicalRecords() {
		payload, err := codec.Encode(&c.rec)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, append([]byte{}, payload...))
	}
	// A grant count far beyond the input and the records whose form is
	// refused by its tag: a plan diff, a rebase to a plan, to the empty
	// plan and to a plan of two workflows' jobs, a tick, confirm and
	// requeue with fault counters, an epoch with a slot, a tick that
	// back-references its IDs and a diff with θ levels.
	p := &plan.Plan{Rev: 12, From: 30, NSlots: 5, Jobs: map[string]plan.Job{}}
	for i, id := range []string{"wf0003/SelfJoin-3#3", "wf0003/TeraSort-5#5", "wf0004/TeraSort-1#1"} {
		w := plan.Window{Rel: 30, Dl: 35}
		alloc := make([]resource.Vector, w.Dl-w.Rel)
		alloc[i], alloc[i+2] = resource.New(int64(i+1), 1024), resource.New(2, 4096)
		p.Jobs[id] = plan.Job{Window: w, Alloc: alloc}
	}
	return append(seeds,
		planDiffRecord(tb, canonicalDiff(2, 3)), planRebaseRecord(tb, canonicalPlan()), planRebaseRecord(tb, &plan.Plan{Rev: 1}),
		[]byte{tagTick, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		[]byte(literalRequeues), []byte(literalGrant),
		[]byte(faultsTick), []byte(faultsConfirm), []byte(faultsRequeue), []byte(slotEpoch),
		parentTick(), parentDiff(), planRebaseRecord(tb, p))
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the record decoder. It
// must never panic, and an accepted payload re-encodes to exactly itself.
// Every plan record seed is refused, naming its form, and so is every
// seed with a literal quantum ID. (That decoding allocates O(len(input))
// is TestDecodeWALRecordAllocation's to check.)
func FuzzDecodeWALRecord(f *testing.F) {
	var codec rmstate.Codec
	for _, seed := range walFuzzSeeds(f) {
		if tag := seed[0]; tag == tagPlanDiff || tag == tagPlanRebase {
			if _, err := codec.Decode(seed); err == nil || !strings.Contains(err.Error(), "journaled the scheduler's plan") {
				f.Fatalf("plan record seed with tag %d: decode = %v, want it refused by name", tag, err)
			}
		}
		f.Add(seed)
	}
	for _, seed := range []string{literalRequeues, literalGrant} {
		if _, err := codec.Decode([]byte(seed)); err == nil || !strings.Contains(err.Error(), "literal quantum ID") {
			f.Fatalf("seed %q with a literal quantum ID: decode = %v, want it refused by name", seed, err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var codec rmstate.Codec
		rec, err := codec.Decode(data)
		if err != nil {
			return
		}
		if re, err := codec.Encode(&rec); err != nil || !bytes.Equal(re, data) {
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
	inputs := append(walFuzzSeeds(t),
		claim(tagWorkflow),                            // the workflow ID's length
		claim(tagWorkflow, 0, 0, 0),                   // jobs
		claim(tagWorkflow, 0, 0, 0, 0),                // deps
		claim(tagWorkflow, 0, 0, 0, 0, 0, 0, 0, 0, 0), // windows
		claim(tagTick, 1),                             // requeued quantum IDs
		claim(tagTick, 1, 0),                          // grants
		claim(tagTick, 1, 0, 1, 3, 0),                 // a grant's job ID length
		claim(tagConfirm, 1),                          // confirmed quantum IDs
		claim(tagRequeue),
		claim(tagPlanDiff, 0x02, 1, 0, 4),   // the diff's removes
		claim(tagPlanRebase, 0x02, 1, 0, 4), // the rebase's removes
	)
	var codec rmstate.Codec
	for i, in := range inputs {
		// The factor covers a one-byte element decoding into a ~100-byte
		// struct; the allowance the decoder's fixed set-up.
		budget := uint64(len(in))*256 + 32<<10
		if got := allocatedBytes(func() { codec.Decode(in) }); got > budget {
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
