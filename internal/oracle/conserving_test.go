package oracle

import (
	"math/rand"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/sim"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// runConserving plays the scenario beside the given ad-hoc jobs through a
// Conserving FlowTime and requires every slot to have passed its checks.
func runConserving(t *testing.T, sc *Scenario, adhoc []workflow.AdHoc) *sim.Result {
	t.Helper()
	ft := NewConserving(core.DefaultConfig())
	capacity := sc.Capacity
	res, err := sim.Run(sim.Config{
		SlotDur: sc.SlotDur, Horizon: sc.Horizon,
		Capacity:  func(int64) resource.Vector { return capacity },
		Scheduler: ft, Workflows: sc.Workflows, AdHoc: adhoc, Invariants: true,
	})
	if err != nil {
		t.Fatalf("%v: %v", sc.Regimes, err)
	}
	if ft.Slots() != res.Slots || res.Slots == 0 {
		t.Fatalf("%d of %d slots checked", ft.Slots(), res.Slots)
	}
	return res
}

// TestConservingHoldsOnScenarios is ftverify's scenario check inside the
// tier-1 suite: on generated scenarios of every deadline regime, with and
// without an ad-hoc stream, every Assign is work-conserving and grants
// deadline work, ahead of the ad-hoc jobs, what it grants it with them
// struck out. Odd seeds run under chaos (runtimes off their estimates,
// stragglers), where the overdue and backlog passes have work.
func TestConservingHoldsOnScenarios(t *testing.T) {
	withAdHoc := 0
	for seed := int64(1); seed <= 60; seed++ {
		sc, err := GenScenario(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: GenScenario: %v", seed, err)
		}
		if len(sc.AdHoc) > 0 {
			withAdHoc++
		}
		if seed%2 == 1 {
			if err := workload.InjectChaos(seed, sc.Workflows); err != nil {
				t.Fatalf("seed %d: InjectChaos: %v", seed, err)
			}
		}
		res := runConserving(t, sc, sc.AdHoc)
		if res.StalledSlots != 0 {
			t.Errorf("seed %d: StalledSlots = %d, want 0 from a work-conserving scheduler", seed, res.StalledSlots)
		}
	}
	if withAdHoc < 30 {
		t.Fatalf("only %d of 60 scenarios had an ad-hoc stream to strike out", withAdHoc)
	}
}

// TestStreamCostsOnlyIdleCapacity pins what is left of the end-to-end
// ad-hoc-removal relation. Up to PR 19 removing a scenario's ad-hoc stream
// changed no deadline job's outcome. Now deadline work runs ahead of its
// plan on capacity nothing else wants, so the stream can cost it that
// windfall — and, in a tight scenario, a deadline the plan alone never
// promised. Scenario 84 (three tight workflows, five ad-hoc jobs) is such
// a case: alone on the cluster every job meets its decomposed deadline;
// beside the stream TeraSort-3 ends one slot after its own. It is no
// regression, and the third run says why: with the stream replaced by one
// ad-hoc job that wants the whole cluster for the whole run, deadline work
// gets its claims — plan, overdue, backlog — and nothing else (all it ever
// got up to PR 19, with or without a stream), and the same job is nine
// slots late beside three more misses. Every job's completion beside the stream
// lies between the other two: the stream took idle capacity, never a
// claim — which is the per-slot relation Conserving holds all three runs
// to, and the reason no verdict-level form of it ("meets its deadline
// alone ⇒ meets it beside the stream") can be exact.
func TestStreamCostsOnlyIdleCapacity(t *testing.T) {
	sc, err := GenScenario(rand.New(rand.NewSource(84)))
	if err != nil {
		t.Fatalf("GenScenario: %v", err)
	}
	cores := sc.Capacity.Get(resource.VCores)
	filler := workflow.AdHoc{
		ID: "filler", Tasks: int(cores), TaskDuration: time.Duration(4*sc.Horizon) * sc.SlotDur,
		TaskDemand: resource.New(1, sc.Capacity.Get(resource.MemoryMB)/cores),
	}
	alone := runConserving(t, sc, nil)
	beside := runConserving(t, sc, sc.AdHoc)
	claims := runConserving(t, sc, []workflow.AdHoc{filler})

	var lost, missedOnClaims int
	for j, b := range beside.Jobs {
		a, c := alone.Jobs[j], claims.Jobs[j]
		if a.Missed() {
			t.Errorf("%s/%s misses its deadline alone on the cluster: %+v", a.WorkflowID, a.JobName, a)
		}
		if !b.Completed || !c.Completed || a.Completion > b.Completion || b.Completion > c.Completion {
			t.Errorf("%s/%s: done at %v alone, %v beside the stream, %v on its claims only; want them in that order",
				b.WorkflowID, b.JobName, a.Completion, b.Completion, c.Completion)
		}
		if b.Missed() {
			lost++
			if !c.Missed() {
				t.Errorf("%s/%s misses beside the stream but not on its claims only: the stream cost it a claim", b.WorkflowID, b.JobName)
			}
		}
		if c.Missed() {
			missedOnClaims++
		}
	}
	if lost == 0 {
		t.Error("no deadline job misses beside the stream: the scenario no longer shows the end-to-end relation failing; find another seed")
	}
	if missedOnClaims <= lost {
		t.Errorf("%d jobs miss on their claims only, %d beside the stream; want idle capacity to have saved some", missedOnClaims, lost)
	}
}
