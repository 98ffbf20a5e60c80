package sim

import (
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

func machineModeConfig(machines []machine.Spec, events []machine.Event, adhoc []workflow.AdHoc) Config {
	return Config{
		SlotDur:    10 * time.Second,
		Horizon:    50,
		Scheduler:  sched.NewFIFO(),
		AdHoc:      adhoc,
		Machines:   &MachineMode{Initial: machines, Events: events},
		Invariants: true,
	}
}

func TestMachineModeRejectsExplicitCapacity(t *testing.T) {
	cfg := machineModeConfig(machine.Homogeneous("m", 2, resource.New(4, 4096)), nil, nil)
	cfg.Capacity = func(int64) resource.Vector { return resource.New(1, 1) }
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Capacity must be nil") {
		t.Fatalf("err = %v, want capacity-conflict error", err)
	}
}

func TestMachineModeRejectsUnsortedEvents(t *testing.T) {
	cfg := machineModeConfig(machine.Homogeneous("m", 2, resource.New(4, 4096)), []machine.Event{
		{Slot: 5, Kind: machine.Fail, ID: "m-1"},
		{Slot: 3, Kind: machine.Fail, ID: "m-0"},
	}, nil)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "not slot-sorted") {
		t.Fatalf("err = %v, want an unsorted-events error", err)
	}
}

func TestMachineModeRunsToCompletion(t *testing.T) {
	adhoc := []workflow.AdHoc{{
		ID: "a", Tasks: 4, TaskDuration: 20 * time.Second,
		TaskDemand: resource.New(1, 512),
	}}
	res, err := Run(machineModeConfig(machine.Homogeneous("m", 2, resource.New(2, 2048)), nil, adhoc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.AdHoc) != 1 || !res.AdHoc[0].Completed {
		t.Fatalf("ad-hoc outcome = %+v", res.AdHoc)
	}
	if res.Machine == nil {
		t.Fatal("machine mode produced no MachineResult")
	}
	m := res.Machine
	if m.PeakLive != 2 || m.MinLive != 2 || m.FinalLive != 2 {
		t.Fatalf("live counts = %d/%d/%d, want 2/2/2", m.MinLive, m.PeakLive, m.FinalLive)
	}
	if m.RefusedTasks != 0 {
		t.Fatalf("%d tasks refused on an uncontended cluster", m.RefusedTasks)
	}
	if res.InvariantSlots == 0 {
		t.Fatal("invariants did not run")
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func TestMachineModeEventsChangeCapacity(t *testing.T) {
	events := []machine.Event{
		{Slot: 3, Kind: machine.Fail, ID: "m-0"},
		{Slot: 6, Kind: machine.Join, Spec: machine.Spec{ID: "m-0", Capacity: resource.New(2, 2048)}},
	}
	adhoc := []workflow.AdHoc{{
		ID: "a", Tasks: 8, TaskDuration: 100 * time.Second,
		TaskDemand: resource.New(1, 512),
	}}
	res, err := Run(machineModeConfig(machine.Homogeneous("m", 2, resource.New(2, 2048)), events, adhoc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Machine
	if m == nil {
		t.Fatal("no MachineResult")
	}
	if m.MachineEvents != 2 {
		t.Fatalf("MachineEvents = %d, want 2", m.MachineEvents)
	}
	if m.MinLive != 1 || m.PeakLive != 2 || m.FinalLive != 2 {
		t.Fatalf("live counts = %d/%d/%d, want 1/2/2", m.MinLive, m.PeakLive, m.FinalLive)
	}
	if m.Stats.Fails != 1 || m.Stats.Joins != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
	if m.RequeuedQuanta != 2 {
		t.Fatalf("RequeuedQuanta = %d, want the 2 tasks m-0 ran when it failed", m.RequeuedQuanta)
	}
}

// liveCapacity is FIFO, recording at each slot what CapAt reports for the
// slot and every one after it up to the horizon.
type liveCapacity struct {
	sched.Scheduler
	seen map[int64][]resource.Vector
}

func (l *liveCapacity) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	for slot := ctx.Now; slot < ctx.Cluster.Horizon; slot++ {
		l.seen[ctx.Now] = append(l.seen[ctx.Now], ctx.Cluster.CapAt(slot))
	}
	return l.Scheduler.Assign(ctx)
}

// TestMachineModeSchedulerSeesLiveCapacity: machine mode's scheduler plans
// on the machines live at the slot, for that slot and every one ahead, as
// the RM's plans on the nodes it knows. m-1 fails at slot 5: before, the
// scheduler sees both machines' capacity however far ahead it looks, and
// from slot 5 on only m-0's.
func TestMachineModeSchedulerSeesLiveCapacity(t *testing.T) {
	each := resource.New(2, 2048)
	cfg := machineModeConfig(machine.Homogeneous("m", 2, each),
		[]machine.Event{{Slot: 5, Kind: machine.Fail, ID: "m-1"}},
		[]workflow.AdHoc{{ID: "a", Tasks: 8, TaskDuration: 100 * time.Second, TaskDemand: resource.New(1, 512)}})
	rec := &liveCapacity{Scheduler: cfg.Scheduler, seen: make(map[int64][]resource.Vector)}
	cfg.Scheduler = rec
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for slot := range int64(6) {
		if len(rec.seen[slot]) == 0 {
			t.Fatalf("the scheduler was not asked at slot %d", slot)
		}
	}
	for slot, caps := range rec.seen {
		want := each.Add(each)
		if slot >= 5 {
			want = each
		}
		for k, c := range caps {
			if c != want {
				t.Errorf("at slot %d, CapAt(%d) = %v, want %v", slot, slot+int64(k), c, want)
				break
			}
		}
	}
}

// TestHandOffSkipsHeartbeatenMachines: the nodes heartbeat in ID order, so
// a hand-off goes to the confirming machine or one after it, never to one
// that has heartbeaten in the slot, as on the RM. In slot 0 ad-hoc x fills
// m-0 and w's a runs on m-1. In slot 1 m-0 confirms x, then m-1 confirms a,
// which makes b ready: its offer must land on m-1, though m-0 is idle too.
// m-0 fails at slot 2, where a hand-off onto it would be requeued.
func TestHandOffSkipsHeartbeatenMachines(t *testing.T) {
	w := workflow.New("w", 0, 20*slotDur)
	w.AddDep(w.AddJob(simpleJob("a", 1, slotDur)), w.AddJob(simpleJob("b", 1, slotDur)))
	cfg := machineModeConfig(machine.Homogeneous("m", 2, resource.New(2, 2048)),
		[]machine.Event{{Slot: 2, Kind: machine.Fail, ID: "m-0"}},
		[]workflow.AdHoc{{ID: "x", Tasks: 2, TaskDuration: slotDur, TaskDemand: resource.New(1, 100)}})
	cfg.Scheduler, cfg.Workflows = core.New(core.DefaultConfig()), []*workflow.Workflow{w}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b, q := res.Jobs[1], res.Machine.RequeuedQuanta; b.Completion != 2*slotDur || q != 0 {
		t.Errorf("b completes at %v and m-0 failed holding %d quanta, want 20s and 0: b went to m-0, which had heartbeaten", b.Completion, q)
	}
}

// TestMachineModeFragmentationStarvesOversizedTasks: a task whose demand
// exceeds every machine can be granted by the fluid scheduler but never
// placed — the task is refused, every slot, and the job cannot finish.
func TestMachineModeFragmentationStarvesOversizedTasks(t *testing.T) {
	adhoc := []workflow.AdHoc{{
		ID: "big", Tasks: 1, TaskDuration: 10 * time.Second,
		TaskDemand: resource.New(4, 512), // no single 2-core machine fits this
	}}
	res, err := Run(machineModeConfig(machine.Homogeneous("m", 2, resource.New(2, 2048)), nil, adhoc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.AdHoc[0].Completed {
		t.Fatal("oversized task completed despite fitting no machine")
	}
	m := res.Machine
	if m.RefusedTasks != res.Slots {
		t.Fatalf("%d tasks refused over %d slots, want one a slot", m.RefusedTasks, res.Slots)
	}
}

// TestMachineModeMatchesAggregateWhenUnconstrained: with one huge
// machine, placement can never fail, so machine mode must reproduce the
// aggregate simulation's outcomes exactly.
func TestMachineModeMatchesAggregateWhenUnconstrained(t *testing.T) {
	adhoc := []workflow.AdHoc{
		{ID: "a", Tasks: 4, TaskDuration: 30 * time.Second, TaskDemand: resource.New(1, 512)},
		{ID: "b", Submit: 20 * time.Second, Tasks: 2, TaskDuration: 50 * time.Second, TaskDemand: resource.New(2, 256)},
	}
	big := resource.New(64, 65536)
	mres, err := Run(machineModeConfig([]machine.Spec{{ID: "jumbo", Capacity: big}}, nil, adhoc))
	if err != nil {
		t.Fatalf("machine-mode Run: %v", err)
	}
	ares, err := Run(Config{
		SlotDur:    10 * time.Second,
		Horizon:    50,
		Scheduler:  sched.NewFIFO(),
		AdHoc:      adhoc,
		Capacity:   func(int64) resource.Vector { return big },
		Invariants: true,
	})
	if err != nil {
		t.Fatalf("aggregate Run: %v", err)
	}
	if len(mres.AdHoc) != len(ares.AdHoc) {
		t.Fatalf("outcome counts differ: %d vs %d", len(mres.AdHoc), len(ares.AdHoc))
	}
	for i := range mres.AdHoc {
		if mres.AdHoc[i] != ares.AdHoc[i] {
			t.Fatalf("outcome %d diverged: machine %+v vs aggregate %+v", i, mres.AdHoc[i], ares.AdHoc[i])
		}
	}
	if mres.Machine.RefusedTasks != 0 {
		t.Fatalf("%d tasks refused on a single huge machine", mres.Machine.RefusedTasks)
	}
}

func TestCheckMachinesViolations(t *testing.T) {
	c := NewInvariantChecker()
	node := func(id string, placed resource.Vector) *rmstate.Node {
		return &rmstate.Node{ID: id, Capacity: resource.New(4, 4096), Placed: placed}
	}
	// Overcommitted machine.
	err := c.CheckMachines(0, resource.New(8, 512), []*rmstate.Node{node("m", resource.New(8, 512))})
	if err == nil || !strings.Contains(err.Error(), "overcommitted") {
		t.Fatalf("err = %v, want overcommitted", err)
	}
	// Placement/grant accounting mismatch.
	err = c.CheckMachines(0, resource.New(4, 512), []*rmstate.Node{node("m", resource.New(2, 512))})
	if err == nil || !strings.Contains(err.Error(), "granted volume") {
		t.Fatalf("err = %v, want granted-volume mismatch", err)
	}
	// Duplicate machine.
	err = c.CheckMachines(0, resource.New(2, 512), []*rmstate.Node{
		node("m", resource.New(1, 256)), node("m", resource.New(1, 256)),
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want reported-twice", err)
	}
	// Clean slot, an idle machine beside the busy one.
	if err := c.CheckMachines(0, resource.New(2, 512), []*rmstate.Node{
		node("m", resource.New(2, 512)), node("n", resource.Vector{}),
	}); err != nil {
		t.Fatalf("clean slot rejected: %v", err)
	}
}
