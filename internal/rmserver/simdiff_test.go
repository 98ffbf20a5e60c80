package rmserver

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sim"
	"flowtime/internal/trace"
)

// simDiffSlots bounds both sides of TestSimIsTheRMOnOneNode: every
// workload it draws completes well inside it.
const simDiffSlots = 400

// genSimDiff draws seed's workload for one node of 8 vcores and 16 GB:
// 2–4 workflows of 2–5 jobs on a random DAG and 2–6 ad-hoc jobs, each
// submitted on a slot boundary in the first 20 slots, of 1–6 tasks of
// 1–3 vcores, 1 GB each, running 5–60 whole seconds. A workflow is due
// 5–40 slots after its submission, so some deadlines are missed and some
// workflows admitted best-effort.
func genSimDiff(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	slotSec := int64(slotDur.Seconds())
	stage := func(name string) trace.JobRecord {
		cores := 1 + rng.Int63n(3)
		return trace.JobRecord{Name: name, Tasks: 1 + rng.Intn(6), TaskDurSec: 5 + rng.Int63n(56), DemandVCores: cores, DemandMemMB: cores * 1024}
	}
	tr := &trace.Trace{Version: 2}
	for w := range 2 + rng.Intn(3) {
		submit := rng.Int63n(20) * slotSec
		rec := trace.WorkflowRecord{ID: fmt.Sprintf("wf%d", w), SubmitSec: submit, DeadlineSec: submit + (5+rng.Int63n(36))*slotSec}
		for j := range 2 + rng.Intn(4) {
			rec.Jobs = append(rec.Jobs, stage(fmt.Sprintf("j%d", j)))
			for p := range j {
				if rng.Intn(2) == 0 {
					rec.Deps = append(rec.Deps, [2]int{p, j})
				}
			}
		}
		tr.Workflows = append(tr.Workflows, rec)
	}
	for a := range 2 + rng.Intn(5) {
		j := stage("")
		tr.AdHoc = append(tr.AdHoc, trace.AdHocRecord{
			ID: fmt.Sprintf("a%d", a), SubmitSec: rng.Int63n(20) * slotSec,
			Tasks: j.Tasks, TaskDurSec: j.TaskDurSec, DemandVCores: j.DemandVCores, DemandMemMB: j.DemandMemMB,
		})
	}
	return tr
}

// TestSimIsTheRMOnOneNode holds the simulator to the resource manager it
// stands in for: seeded small workloads (genSimDiff) run under FlowTime,
// EDF and FIFO through sim.Run on one node's capacity and through an RM
// with that one node, ticked and then heartbeaten each slot, and every job
// completes in the same slot on both. A successor starts at the heartbeat
// that confirms its last predecessor (a hand-off) or at the next tick, so
// a simulator that confirmed a grant in its own slot, or never handed an
// offer off, finishes successors a slot away from the RM.
func TestSimIsTheRMOnOneNode(t *testing.T) {
	const seeds = 12
	node := rmproto.Resources{VCores: 8, MemoryMB: 16 * 1024}
	var handOffs int64
	for seed := int64(1); seed <= seeds; seed++ {
		tr := genSimDiff(seed)
		for _, alg := range []string{"FlowTime", "EDF", "FIFO"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, alg), func(t *testing.T) {
				want := simCompletions(t, tr, alg, node.ToVector())
				s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				c := newCluster(t, Config{Scheduler: s}, nil)
				c.register("n1", node.VCores, node.MemoryMB)
				slotSec := int64(slotDur.Seconds())
				for slot := int64(0); slot < simDiffSlots; slot++ {
					for _, w := range tr.Workflows {
						if w.SubmitSec == slot*slotSec {
							if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: w}); err != nil {
								t.Fatalf("SubmitWorkflow(%s): %v", w.ID, err)
							}
						}
					}
					for _, a := range tr.AdHoc {
						if a.SubmitSec == slot*slotSec {
							submitAdHocRecord(t, c.rm, a)
						}
					}
					c.step()
				}
				// The RM reports the confirming heartbeat's slot; the work
				// ran during the slot before, which the simulator reports.
				got := make(map[string]int64)
				for _, j := range c.rm.Status().Jobs {
					if j.State == "completed" {
						id, _, _ := strings.Cut(j.ID, "#")
						got[id] = j.CompletedSec/slotSec - 1
					}
				}
				if !maps.Equal(got, want) {
					for id, slot := range want {
						if got[id] != slot {
							t.Errorf("%s completes at slot %d in the simulator, %d on the RM", id, slot, got[id])
						}
					}
					t.Fatalf("the simulator completed %d jobs, the RM %d", len(want), len(got))
				}
				if alg == "FlowTime" {
					d, _ := c.rm.HandOffs()
					handOffs += d
				}
			})
		}
	}
	if handOffs == 0 {
		t.Error("FlowTime handed no offer off on any seed: the hand-off path went untested")
	}
	t.Logf("FlowTime handed %d offers off over %d seeds", handOffs, seeds)
}

// simCompletions runs tr through sim.Run under alg on a cluster of
// capacity and returns each job's completion slot by the RM's job ID (a
// workflow job's without its "#index"), failing unless every job completed.
func simCompletions(t *testing.T, tr *trace.Trace, alg string, capacity resource.Vector) map[string]int64 {
	t.Helper()
	wfs, adhoc, err := tr.ToWorkload()
	if err != nil {
		t.Fatalf("ToWorkload: %v", err)
	}
	s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		SlotDur: slotDur, Horizon: simDiffSlots, Scheduler: s, Invariants: true,
		Capacity:  func(int64) resource.Vector { return capacity },
		Workflows: wfs, AdHoc: adhoc,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	out := make(map[string]int64)
	for _, o := range res.Jobs {
		if !o.Completed {
			t.Fatalf("the simulator never completed %s/%s", o.WorkflowID, o.JobName)
		}
		out[o.WorkflowID+"/"+o.JobName] = int64(o.Completion / slotDur)
	}
	for _, o := range res.AdHoc {
		if !o.Completed {
			t.Fatalf("the simulator never completed %s", o.ID)
		}
		out[o.ID] = int64(o.Completion / slotDur)
	}
	return out
}

// submitAdHocRecord admits rec, failing the test on an error.
func submitAdHocRecord(t *testing.T, rm *Server, rec trace.AdHocRecord) {
	t.Helper()
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: rec}); err != nil {
		t.Fatalf("SubmitAdHoc(%s): %v", rec.ID, err)
	}
}
