package machine

import (
	"slices"
	"strings"
	"testing"

	"flowtime/internal/resource"
)

func mustCluster(t *testing.T, specs []Spec) *Cluster {
	t.Helper()
	c, err := NewCluster(specs)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestClusterLifecycle(t *testing.T) {
	c := mustCluster(t, Homogeneous("m", 3, resource.New(4, 1024)))
	if got, want := c.Live(), 3; got != want {
		t.Fatalf("Live = %d, want %d", got, want)
	}
	if got, want := c.Capacity(), resource.New(12, 3072); got != want {
		t.Fatalf("Capacity = %v, want %v", got, want)
	}

	if err := c.Apply(Event{Kind: Leave, ID: "m-1"}); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := c.Apply(Event{Kind: Fail, ID: "m-2"}); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if got, want := c.Live(), 1; got != want {
		t.Fatalf("Live after removals = %d, want %d", got, want)
	}
	if got, want := c.Capacity(), resource.New(4, 1024); got != want {
		t.Fatalf("Capacity after removals = %v, want %v", got, want)
	}

	// Removing a dead machine and re-joining a live one must fail.
	if err := c.Apply(Event{Kind: Leave, ID: "m-1"}); err == nil {
		t.Fatal("leaving a dead machine succeeded")
	}
	if err := c.Apply(Event{Kind: Join, Spec: Spec{ID: "m-0", Capacity: resource.New(4, 1024)}}); err == nil {
		t.Fatal("joining a duplicate ID succeeded")
	}

	// Rejoin of a previously removed machine is fine.
	if err := c.Apply(Event{Kind: Join, Spec: Spec{ID: "m-1", Capacity: resource.New(8, 2048)}}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got, want := c.Capacity(), resource.New(12, 3072); got != want {
		t.Fatalf("Capacity after rejoin = %v, want %v", got, want)
	}
	st := c.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Fails != 1 {
		t.Fatalf("stats = %+v, want 1 join, 1 leave, 1 fail", st)
	}
}

func TestSetScale(t *testing.T) {
	c := mustCluster(t, Homogeneous("m", 2, resource.New(10, 1000)))
	if err := c.Apply(Event{Kind: SetScale, ScaleNum: 60, ScaleDen: 100}); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if got, want := c.Capacity(), resource.New(12, 1200); got != want {
		t.Fatalf("scaled Capacity = %v, want %v", got, want)
	}
	// A machine joining under the scale gets scaled capacity too.
	if err := c.Apply(Event{Kind: Join, Spec: Spec{ID: "x", Capacity: resource.New(10, 1000)}}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got, want := c.Capacity(), resource.New(18, 1800); got != want {
		t.Fatalf("Capacity after scaled join = %v, want %v", got, want)
	}
	// Back to nominal.
	if err := c.Apply(Event{Kind: SetScale, ScaleNum: 100, ScaleDen: 100}); err != nil {
		t.Fatalf("unscale: %v", err)
	}
	if got, want := c.Capacity(), resource.New(30, 3000); got != want {
		t.Fatalf("restored Capacity = %v, want %v", got, want)
	}
}

func TestPlaceAndFragmentation(t *testing.T) {
	c := mustCluster(t, Homogeneous("m", 2, resource.New(4, 4096)))
	c.BeginSlot(0)

	// Two 3-core units: one lands on each machine.
	unit := resource.New(3, 1024)
	placed, pls := c.Place(unit, 2)
	if placed != 2 {
		t.Fatalf("placed = %d, want 2 (placements %v)", placed, pls)
	}
	seen := map[string]bool{}
	for _, p := range pls {
		seen[p.MachineID] = true
	}
	if len(seen) != 2 {
		t.Fatalf("both units on one machine: %v", pls)
	}

	// Each machine now has 1 core free; a 2-core unit fits the 2-core sum
	// but no single machine: a fragmentation failure.
	placed, _ = c.Place(resource.New(2, 512), 1)
	if placed != 0 {
		t.Fatalf("fragmented place landed %d units", placed)
	}
	st := c.Stats()
	if st.Failures != 1 || st.ShortUnits != 1 || st.FragmentationFailures != 1 {
		t.Fatalf("stats = %+v, want 1 failure / 1 short / 1 fragmentation", st)
	}

	// A 3-core unit exceeds even the summed free capacity: a failure, but
	// not a fragmentation failure.
	placed, _ = c.Place(resource.New(3, 512), 1)
	if placed != 0 {
		t.Fatalf("oversized place landed %d units", placed)
	}
	st = c.Stats()
	if st.Failures != 2 || st.FragmentationFailures != 1 {
		t.Fatalf("stats = %+v, want 2 failures with 1 fragmentation", st)
	}

	// A new slot resets occupancy lazily: full capacity again.
	c.BeginSlot(1)
	placed, _ = c.Place(unit, 2)
	if placed != 2 {
		t.Fatalf("placed after BeginSlot = %d, want 2", placed)
	}
}

func TestPlaceNeverUsesDeadMachine(t *testing.T) {
	c := mustCluster(t, Homogeneous("m", 3, resource.New(2, 2048)))
	if err := c.Apply(Event{Kind: Fail, ID: "m-1"}); err != nil {
		t.Fatalf("fail: %v", err)
	}
	c.BeginSlot(0)
	placed, pls := c.Place(resource.New(1, 512), 6)
	if placed != 4 {
		t.Fatalf("placed = %d, want 4 (two live 2-core machines)", placed)
	}
	for _, p := range pls {
		if p.MachineID == "m-1" {
			t.Fatalf("unit placed on dead machine: %v", pls)
		}
	}
}

func TestSlotUsage(t *testing.T) {
	c := mustCluster(t, Homogeneous("m", 2, resource.New(4, 4096)))
	c.BeginSlot(3)
	if _, pls := c.Place(resource.New(4, 1024), 1); len(pls) != 1 {
		t.Fatalf("placements = %v", pls)
	}
	usage := c.SlotUsage()
	if len(usage) != 1 {
		t.Fatalf("SlotUsage = %v, want one busy machine", usage)
	}
	if usage[0].Used != resource.New(4, 1024) {
		t.Fatalf("Used = %v", usage[0].Used)
	}
	if !usage[0].Used.FitsIn(usage[0].Capacity) {
		t.Fatalf("usage overcommitted: %+v", usage[0])
	}
	// Next slot: stale occupancy is not reported.
	c.BeginSlot(4)
	if u := c.SlotUsage(); len(u) != 0 {
		t.Fatalf("SlotUsage after new slot = %v, want empty", u)
	}
}

func TestProfile(t *testing.T) {
	initial := Homogeneous("m", 2, resource.New(4, 1024))
	events := []Event{
		{Slot: 10, Kind: Fail, ID: "m-0"},
		{Slot: 20, Kind: Join, Spec: Spec{ID: "m-0", Capacity: resource.New(4, 1024)}},
		{Slot: 30, Kind: SetScale, ScaleNum: 50, ScaleDen: 100},
	}
	p, err := NewProfile(initial, events)
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	if want := []int64{0, 10, 20, 30}; !slices.Equal(p.breakpoints, want) {
		t.Fatalf("breakpoints = %v, want %v", p.breakpoints, want)
	}
	wantCaps := []resource.Vector{
		resource.New(8, 2048), resource.New(4, 1024), resource.New(8, 2048), resource.New(4, 1024),
	}
	if !slices.Equal(p.caps, wantCaps) {
		t.Fatalf("caps = %v, want %v", p.caps, wantCaps)
	}

	if _, err := NewProfile(initial, []Event{
		{Slot: 10, Kind: Fail, ID: "m-0"},
		{Slot: 5, Kind: Join, Spec: Spec{ID: "x", Capacity: resource.New(1, 1)}},
	}); err == nil || !strings.Contains(err.Error(), "not slot-sorted") {
		t.Fatalf("unsorted events: err = %v, want not-slot-sorted", err)
	}
	if _, err := NewProfile(append(initial, initial[0]), nil); err == nil {
		t.Error("duplicate machine accepted")
	}
}

// TestProfileCapAt reads compiled profiles back slot by slot: between,
// on and past their breakpoints.
func TestProfileCapAt(t *testing.T) {
	spec := func(id string, cores int64) Spec {
		return Spec{ID: id, Capacity: resource.New(cores, cores*2048)}
	}
	type at struct{ slot, cores int64 }
	for _, tc := range []struct {
		name    string
		initial []Spec
		events  []Event
		want    []at
	}{
		{"constant", []Spec{spec("a", 10)}, nil, []at{{-1, 10}, {0, 10}, {1, 10}, {1000, 10}}},
		{"empty", nil, nil, []at{{0, 0}, {5, 0}}},
		// a throughout; b joins at 5 and leaves at 20; c joins at 10.
		{"step function", []Spec{spec("a", 10)}, []Event{
			{Slot: 5, Kind: Join, Spec: spec("b", 6)},
			{Slot: 10, Kind: Join, Spec: spec("c", 4)},
			{Slot: 20, Kind: Leave, ID: "b"},
		}, []at{{0, 10}, {4, 10}, {5, 16}, {9, 16}, {10, 20}, {19, 20}, {20, 14}, {100, 14}}},
		{"delayed first machine", nil, []Event{{Slot: 10, Kind: Join, Spec: spec("a", 8)}},
			[]at{{0, 0}, {9, 0}, {10, 8}}},
		// A dip: one machine at half its capacity during [10, 20).
		{"dip", []Spec{spec("cluster", 100)}, []Event{
			{Slot: 10, Kind: SetScale, ScaleNum: 1, ScaleDen: 2},
			{Slot: 20, Kind: SetScale, ScaleNum: 1, ScaleDen: 1},
		}, []at{{0, 100}, {9, 100}, {10, 50}, {19, 50}, {20, 100}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProfile(tc.initial, tc.events)
			if err != nil {
				t.Fatalf("NewProfile: %v", err)
			}
			for _, w := range tc.want {
				if got := p.CapAt(w.slot); got != resource.New(w.cores, w.cores*2048) {
					t.Errorf("CapAt(%d) = %v, want %d cores", w.slot, got, w.cores)
				}
			}
		})
	}
}

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{Slot: -1, Kind: Join, Spec: Spec{ID: "a", Capacity: resource.New(1, 1)}},
		{Kind: Join},  // invalid spec
		{Kind: Leave}, // missing ID
		{Kind: SetScale, ScaleNum: 5, ScaleDen: 0},     // zero denominator
		{Kind: SetScale, ScaleNum: 150, ScaleDen: 100}, // > 1
		{Kind: SetScale, ScaleNum: -1, ScaleDen: 2},    // negative
		{Kind: EventKind(99), ID: "x"},                 // unknown kind
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad event %d (%+v) validated", i, e)
		}
	}
}

func TestSortEventsStable(t *testing.T) {
	events := []Event{
		{Slot: 5, Kind: Leave, ID: "a"},
		{Slot: 1, Kind: Fail, ID: "b"},
		{Slot: 5, Kind: Join, Spec: Spec{ID: "a", Capacity: resource.New(1, 1)}},
	}
	SortEvents(events)
	if events[0].ID != "b" {
		t.Fatalf("events not sorted by slot: %+v", events)
	}
	// Same-slot order preserved: the leave stays before the rejoin.
	if events[1].Kind != Leave || events[2].Kind != Join {
		t.Fatalf("same-slot order not stable: %+v", events)
	}
}
