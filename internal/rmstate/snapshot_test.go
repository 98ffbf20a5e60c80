package rmstate

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/trace"
)

const (
	fuzzSlot        = 10 * time.Second
	fuzzLeaseExpiry = 3
)

// seedSnapshots drives a small state the way the resource manager does —
// admissions, then slots of DecideTick, PlaceTick and the confirms of the
// slot before, every record made by Apply — and returns its snapshot
// after each step: a workflow, an ad-hoc job, leases in flight, completed
// jobs in a live workflow and in the archive.
func seedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	s := New(fuzzSlot, fuzzLeaseExpiry)
	var snaps [][]byte
	apply := func(rec Record) {
		tb.Helper()
		if err := s.Apply(&rec); err != nil {
			tb.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	nodes := []*Node{{ID: "n1", Capacity: resource.New(4, 8192)}, {ID: "n2", Capacity: resource.New(4, 8192)}}
	wrec := trace.WorkflowRecord{
		ID: "wf", DeadlineSec: 600,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 4, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 1024},
			{Name: "b", Tasks: 2, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}
	wf, err := wrec.ToWorkflow()
	if err != nil {
		tb.Fatal(err)
	}
	admitted, err := s.AdmitWorkflow(wrec, wf, resource.New(8, 16384))
	if err != nil {
		tb.Fatal(err)
	}
	apply(Record{Workflow: admitted})
	adhoc, err := s.AdmitAdHoc(trace.AdHocRecord{ID: "a", Tasks: 2, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512})
	if err != nil {
		tb.Fatal(err)
	}
	apply(Record{AdHoc: adhoc})
	var launched []RecGrant
	for slot := 0; slot < 4; slot++ {
		for _, n := range nodes {
			var qids []string
			for _, g := range launched {
				if g.NodeID == n.ID {
					qids = append(qids, g.Quantum().ID)
				}
			}
			confirm, _ := s.DecideConfirm(n.ID, qids)
			apply(Record{Confirm: confirm})
			n.Placed = resource.Vector{}
		}
		tick, jobs := s.DecideTick(nil, true)
		grants := make(map[string]resource.Vector, len(jobs))
		for _, j := range jobs {
			grants[j.ID] = j.Request
		}
		s.PlaceTick(tick, jobs, grants, NewNodes(nodes))
		apply(Record{Tick: tick})
		launched = tick.Grants
	}
	if len(s.Leases()) == 0 || len(s.done) == 0 {
		tb.Fatalf("the seed state has %d leases and %d completed jobs; want both", len(s.Leases()), len(s.done))
	}
	return snaps
}

// version6Snapshot is snap in the form before this one: version 6, with a
// live plan held as a plan rebase record, the plan's diff from the empty
// plan behind tag 8.
func version6Snapshot(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	var fields map[string]any
	if err := json.Unmarshal(snap, &fields); err != nil {
		tb.Fatal(err)
	}
	slot := int64(fields["slot"].(float64))
	p := &plan.Plan{Rev: 1, From: slot, NSlots: 3, Jobs: map[string]plan.Job{
		"wf/b": {Window: plan.Window{Rel: slot, Dl: slot + 3}, Alloc: []resource.Vector{{}, resource.New(2, 2048), resource.New(1, 1024)}},
	}}
	rebase, err := plan.AppendDiff([]byte{tagPlanRebase}, plan.Compute(&plan.Plan{}, p))
	if err != nil {
		tb.Fatal(err)
	}
	fields["version"], fields["plan"] = 6, rebase
	out, err := json.Marshal(fields)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzRestoreSnapshot: any payload is refused, or it restores to a state
// whose snapshot restores again to the same bytes; nothing panics. Each
// seed, a live state's snapshot, restores to itself; the version-6 seed,
// which holds a plan, is refused by name.
func FuzzRestoreSnapshot(f *testing.F) {
	seeds := seedSnapshots(f)
	v6 := version6Snapshot(f, seeds[len(seeds)-1])
	if _, err := Restore(fuzzSlot, fuzzLeaseExpiry, v6); err == nil || !strings.Contains(err.Error(), "snapshot version 6, the form that held the live plan") {
		f.Fatalf("restore of a version-6 snapshot = %v, want it refused by name", err)
	}
	f.Add(v6)
	for _, snap := range seeds {
		s, err := Restore(fuzzSlot, fuzzLeaseExpiry, snap)
		if err != nil {
			f.Fatalf("restore %s: %v", snap, err)
		}
		if again, err := s.Snapshot(); err != nil || !bytes.Equal(again, snap) {
			f.Fatalf("a restored live state snapshots differently (%v):\nlive:     %s\nrestored: %s", err, snap, again)
		}
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := Restore(fuzzSlot, fuzzLeaseExpiry, payload)
		if err != nil {
			return
		}
		once, err := s.Snapshot()
		if err != nil {
			t.Fatalf("a restored state does not snapshot: %v", err)
		}
		s, err = Restore(fuzzSlot, fuzzLeaseExpiry, once)
		if err != nil {
			t.Fatalf("a restored state's snapshot is refused: %v\n%s", err, once)
		}
		twice, err := s.Snapshot()
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("restore is not stable (%v):\nonce:  %s\ntwice: %s", err, once, twice)
		}
	})
}
