package rmserver

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/machine"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sim"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// simDiffSlots bounds both sides of testSimIsTheRM: every
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

// simDiffRow is one cluster shape of the simulator-against-RM tests:
// name labels its log lines, oneNode runs the simulator's aggregate mode
// (and the figures' corpus beside genSimDiff's seeds), kill fails a node,
// and algs names the schedulers run.
type simDiffRow struct {
	name          string
	oneNode, kill bool
	algs          []string
}

// simDiffCase is one workload of a row: the trace the RM is submitted, its
// records each at its slot, the workload sim.Run runs (a fresh one each
// call), the nodes, and the draws of the node to kill.
type simDiffCase struct {
	name     string
	tr       *trace.Trace
	workload func() ([]*workflow.Workflow, []workflow.AdHoc, error)
	specs    []machine.Spec
	rng      *rand.Rand
}

// scenarioCase is the figures' verification corpus's scenario seed
// (oracle.GenScenario) on one node of its capacity, its durations and
// deadlines in the whole seconds, rounded up, a record holds: sim.Run
// decomposes a workflow from its durations, the RM from its record's.
// sim.Run keeps each ad-hoc submission exact; the RM is submitted it at the
// slot it rounds up to.
func scenarioCase(t *testing.T, seed int64) simDiffCase {
	sc, err := oracle.GenScenario(rand.New(rand.NewSource(seed)))
	if err != nil || sc.SlotDur != slotDur {
		t.Fatalf("scenario %d: %v, slot %v", seed, err, sc.SlotDur)
	}
	tr, err := trace.FromWorkload(sc.Workflows, sc.AdHoc)
	if err != nil {
		t.Fatal(err)
	}
	ceil := func(d, unit time.Duration) int64 { return int64((d + unit - 1) / unit) }
	for i, w := range sc.Workflows {
		tr.Workflows[i].DeadlineSec = ceil(w.Deadline, time.Second)
		for j := range tr.Workflows[i].Jobs {
			tr.Workflows[i].Jobs[j].TaskDurSec = ceil(w.Job(j).TaskDuration, time.Second)
		}
	}
	for i, a := range sc.AdHoc {
		tr.AdHoc[i].SubmitSec = ceil(a.Submit, slotDur) * int64(slotDur/time.Second)
		tr.AdHoc[i].TaskDurSec = ceil(a.TaskDuration, time.Second)
	}
	workload := func() ([]*workflow.Workflow, []workflow.AdHoc, error) {
		wfs, adhoc, err := tr.ToWorkload()
		for i := range adhoc {
			adhoc[i].Submit = sc.AdHoc[i].Submit
		}
		return wfs, adhoc, err
	}
	specs := []machine.Spec{{ID: "n1", Capacity: sc.Capacity}}
	return simDiffCase{fmt.Sprintf("scenario%d", seed), tr, workload, specs, nil}
}

// TestSimIsTheRMOnOneNode, TestSimIsTheRMOnNodes and
// TestSimIsTheRMUnderFailure hold the simulator to the resource manager it
// stands in for: genSimDiff's seeded workloads run through sim.Run and
// through an RM, ticked and then heartbeaten node by node in ID order each
// slot, and every job completes in the same slot on both. The rows are one
// node of 8 vcores and 16 GB (the simulator's aggregate mode), where the
// figures' corpus runs too (scenarioCase), 3–4 nodes of
// 4 vcores and 8 GB (machine mode), and those nodes with one killed at a
// seeded slot after the last submission, the first after it at which a
// node holds leases: on the RM it stops heartbeating, in sim.Run its
// machine fails then. Every node heartbeats, empty, half a slot before each
// tick, and NodeExpiry lies between that and a dead node's silence, so the
// RM expires the node at the tick the simulator fails the machine. A
// simulator that confirmed a grant in its own slot, handed an offer off
// onto a node that had heartbeaten, confirmed what a failed machine ran or
// let its scheduler plan on a failure ahead of it finishes jobs a slot away
// from the RM. FlowTime must hand offers off, and the killed nodes hold
// quanta.
func TestSimIsTheRMOnOneNode(t *testing.T) {
	testSimIsTheRM(t, simDiffRow{"OneNode", true, false, []string{"FlowTime", "EDF", "FIFO"}})
}

func TestSimIsTheRMOnNodes(t *testing.T) {
	testSimIsTheRM(t, simDiffRow{"Nodes", false, false, []string{"FlowTime", "EDF", "FIFO"}})
}

func TestSimIsTheRMUnderFailure(t *testing.T) {
	testSimIsTheRM(t, simDiffRow{"UnderFailure", false, true, []string{"FlowTime", "EDF", "FIFO"}})
}

// testSimIsTheRM runs row's workloads and schedulers, one subtest each.
func testSimIsTheRM(t *testing.T, row simDiffRow) {
	var cases []simDiffCase
	for seed := int64(1); seed <= 12; seed++ {
		tr, rng := genSimDiff(seed), rand.New(rand.NewSource(seed))
		specs := []machine.Spec{{ID: "n1", Capacity: resource.New(8, 16*1024)}}
		if !row.oneNode {
			specs = nil
			for i := range 3 + rng.Intn(2) {
				specs = append(specs, machine.Spec{ID: fmt.Sprintf("n%d", i+1), Capacity: resource.New(4, 8*1024)})
			}
		}
		cases = append(cases, simDiffCase{fmt.Sprintf("seed%d", seed), tr, tr.ToWorkload, specs, rng})
	}
	for seed := int64(1); row.oneNode && seed <= 40; seed++ {
		cases = append(cases, scenarioCase(t, seed))
	}
	var handOffs, requeued int64
	for _, cs := range cases {
		tr, rng, specs := cs.tr, cs.rng, cs.specs
		var last int64 // the last submission's slot
		for _, w := range tr.Workflows {
			last = max(last, w.SubmitSec/int64(slotDur.Seconds()))
		}
		for _, a := range tr.AdHoc {
			last = max(last, a.SubmitSec/int64(slotDur.Seconds()))
		}
		var from int64
		if row.kill {
			from = last + 1 + rng.Int63n(4)
		}
		for _, alg := range row.algs {
			t.Run(cs.name+"/"+alg, func(t *testing.T) {
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
					var holding []string
					for _, id := range c.nodes {
						if row.kill && fail.Slot < 0 && slot >= from && len(c.held[id]) > 0 {
							holding = append(holding, id)
						}
					}
					if len(holding) > 0 {
						fail.Slot, fail.ID = slot, holding[rng.Intn(len(holding))]
						c.kill(fail.ID) // it never confirms what it holds
					}
					for _, id := range c.nodes {
						if _, err := c.rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id}, c.now.Add(slotDur/2)); err != nil {
							t.Fatalf("slot %d: empty heartbeat of %s: %v", slot, id, err)
						}
					}
					c.step()
				}
				cluster := sim.Config{Machines: &sim.MachineMode{Initial: specs}}
				if row.oneNode {
					cluster = sim.Config{Capacity: func(int64) resource.Vector { return specs[0].Capacity }}
				}
				faults := c.rm.Status().Faults
				if row.kill {
					if fail.Slot < 0 || faults.ExpiredNodes != 1 {
						t.Fatalf("killed %q at slot %d (from %d on); the RM expired %d nodes", fail.ID, fail.Slot, from, faults.ExpiredNodes)
					}
					cluster.Machines.Events = []machine.Event{fail}
				}
				want, res := simCompletions(t, cs.workload, alg, cluster)
				checkSameCompletions(t, c.rm, want)
				if res.Machine != nil && res.Machine.RequeuedQuanta != faults.RequeuedQuanta {
					t.Fatalf("the simulator requeued %d quanta, the RM %d", res.Machine.RequeuedQuanta, faults.RequeuedQuanta)
				}
				d, _ := c.rm.HandOffs()
				handOffs, requeued = handOffs+d, requeued+faults.RequeuedQuanta
			})
		}
	}
	if row.algs[0] == "FlowTime" && handOffs == 0 || row.kill && requeued == 0 {
		t.Errorf("%s: %d offers handed off, %d quanta requeued: a path went untested", row.name, handOffs, requeued)
	}
	t.Logf("%s: the RM handed %d offers off and requeued %d quanta", row.name, handOffs, requeued)
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
			if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: a}); err != nil {
				t.Fatalf("SubmitAdHoc(%s): %v", a.ID, err)
			}
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

// simCompletions runs workload through sim.Run under alg on cluster's
// Capacity or Machines and returns each job's completion slot by the RM's
// job ID (a workflow job's without its "#index"), failing unless every job
// completed, and the run's result.
func simCompletions(t *testing.T, workload func() ([]*workflow.Workflow, []workflow.AdHoc, error), alg string, cluster sim.Config) (map[string]int64, *sim.Result) {
	t.Helper()
	wfs, adhoc, err := workload()
	if err != nil {
		t.Fatalf("workload: %v", err)
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
