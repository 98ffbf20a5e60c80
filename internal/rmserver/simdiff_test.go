package rmserver

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/machine"
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
				capacity := node.ToVector()
				want, _ := simCompletions(t, tr, alg, sim.Config{Capacity: func(int64) resource.Vector { return capacity }})
				s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				c := newCluster(t, Config{Scheduler: s}, nil)
				c.register("n1", node.VCores, node.MemoryMB)
				for slot := int64(0); slot < simDiffSlots; slot++ {
					submitDue(t, c.rm, tr, slot)
					c.step()
				}
				checkSameCompletions(t, c.rm, want)
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

// TestSimIsTheRMUnderFailure holds the simulator to the resource manager
// where a node dies holding leases: genSimDiff's seeded workloads run
// under EDF and FIFO on 3–4 nodes of 4 vcores and 8 GB. Neither scheduler
// makes offers, so no heartbeat dispatches anything and the nodes'
// heartbeats commute. At a seeded slot after the last submission, the
// first after it at which a node holds leases, one such node is killed:
// on the RM it stops heartbeating, in sim.Run its machine fails
// (machine.Fail) at that slot. The live nodes heartbeat, empty, half a
// slot before each tick, and NodeExpiry lies between their silence and the
// dead node's, so the RM expires the node at the tick the simulator fails
// the machine and requeues what it held. Every job completes in the same
// slot on both; a simulator whose failed machine still confirmed what it
// ran would finish its jobs sooner than the RM.
func TestSimIsTheRMUnderFailure(t *testing.T) {
	const seeds = 12
	var requeued int64
	for seed := int64(1); seed <= seeds; seed++ {
		tr := genSimDiff(seed)
		rng := rand.New(rand.NewSource(seed))
		var specs []machine.Spec
		for i := range 3 + rng.Intn(2) {
			specs = append(specs, machine.Spec{ID: fmt.Sprintf("n%d", i+1), Capacity: resource.New(4, 8*1024)})
		}
		var last int64 // the last submission's slot
		for _, w := range tr.Workflows {
			last = max(last, w.SubmitSec/int64(slotDur.Seconds()))
		}
		for _, a := range tr.AdHoc {
			last = max(last, a.SubmitSec/int64(slotDur.Seconds()))
		}
		from := last + 1 + rng.Int63n(4)
		for _, alg := range []string{"EDF", "FIFO"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, alg), func(t *testing.T) {
				s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				c := newCluster(t, Config{Scheduler: s, NodeExpiry: slotDur * 3 / 4}, nil)
				for _, m := range specs {
					c.register(m.ID, m.Capacity.Get(resource.VCores), m.Capacity.Get(resource.MemoryMB))
				}
				fail := machine.Event{Slot: -1, Kind: machine.Fail}
				for slot := int64(0); slot < simDiffSlots; slot++ {
					submitDue(t, c.rm, tr, slot)
					if fail.Slot < 0 && slot >= from {
						var holding []string
						for _, id := range c.nodes {
							if len(c.held[id]) > 0 {
								holding = append(holding, id)
							}
						}
						if len(holding) > 0 {
							fail.Slot, fail.ID = slot, holding[rng.Intn(len(holding))]
							c.kill(fail.ID) // it never confirms what it holds
						}
					}
					for _, id := range c.nodes {
						if _, err := c.rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id}, c.now.Add(slotDur/2)); err != nil {
							t.Fatalf("slot %d: empty heartbeat of %s: %v", slot, id, err)
						}
					}
					c.step()
				}
				if fail.Slot < 0 {
					t.Fatalf("no node held a lease from slot %d on", from)
				}
				faults := c.rm.Status().Faults
				if faults.ExpiredNodes != 1 {
					t.Fatalf("the RM expired %d nodes, want the one killed", faults.ExpiredNodes)
				}
				requeued += faults.RequeuedQuanta
				want, res := simCompletions(t, tr, alg, sim.Config{Machines: &sim.MachineMode{Initial: specs, Events: []machine.Event{fail}}})
				checkSameCompletions(t, c.rm, want)
				if res.Machine.RequeuedQuanta != faults.RequeuedQuanta {
					t.Fatalf("the simulator requeued %d quanta, the RM %d", res.Machine.RequeuedQuanta, faults.RequeuedQuanta)
				}
			})
		}
	}
	if requeued == 0 {
		t.Error("no killed node held a quantum the RM requeued")
	}
	t.Logf("the RM requeued %d quanta of killed nodes over %d seeds", requeued, seeds)
}

// submitDue submits tr's workflows and ad-hoc jobs due at slot to rm.
func submitDue(t *testing.T, rm *Server, tr *trace.Trace, slot int64) {
	t.Helper()
	at := slot * int64(slotDur.Seconds())
	for _, w := range tr.Workflows {
		if w.SubmitSec == at {
			if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: w}); err != nil {
				t.Fatalf("SubmitWorkflow(%s): %v", w.ID, err)
			}
		}
	}
	for _, a := range tr.AdHoc {
		if a.SubmitSec == at {
			submitAdHocRecord(t, rm, a)
		}
	}
}

// checkSameCompletions fails unless rm completed every job of want, and
// each in the slot want gives. The RM reports the confirming heartbeat's
// slot; the work ran during the slot before, which the simulator reports.
func checkSameCompletions(t *testing.T, rm *Server, want map[string]int64) {
	t.Helper()
	slotSec := int64(slotDur.Seconds())
	got := make(map[string]int64)
	for _, j := range rm.Status().Jobs {
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
}

// simCompletions runs tr through sim.Run under alg on cluster's Capacity or
// Machines and returns each job's completion slot by the RM's job ID (a
// workflow job's without its "#index"), failing unless every job
// completed, and the run's result.
func simCompletions(t *testing.T, tr *trace.Trace, alg string, cluster sim.Config) (map[string]int64, *sim.Result) {
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
		Capacity: cluster.Capacity, Machines: cluster.Machines,
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
	return out, res
}

// submitAdHocRecord admits rec, failing the test on an error.
func submitAdHocRecord(t *testing.T, rm *Server, rec trace.AdHocRecord) {
	t.Helper()
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: rec}); err != nil {
		t.Fatalf("SubmitAdHoc(%s): %v", rec.ID, err)
	}
}
