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

// TestMachineIsItsLiveScaledCapacity: the capacity the simulator gives a
// machine's node is the machine's scaled capacity while it is live, and
// none once it has failed or left or before it has joined.
func TestMachineIsItsLiveScaledCapacity(t *testing.T) {
	c := mustCluster(t, []Spec{
		{ID: "m-2", Capacity: resource.New(2, 2048)},
		{ID: "m-0", Capacity: resource.New(2, 2048)},
	})
	for _, e := range []Event{
		{Kind: Join, Spec: Spec{ID: "m-1", Capacity: resource.New(4, 1024)}},
		{Kind: Fail, ID: "m-2"},
		{Kind: Join, Spec: Spec{ID: "m-3", Capacity: resource.New(2, 2048)}},
		{Kind: SetScale, ScaleNum: 1, ScaleDen: 2},
	} {
		if err := c.Apply(e); err != nil {
			t.Fatalf("apply %v: %v", e.Kind, err)
		}
	}
	for id, want := range map[string]resource.Vector{
		"m-0": resource.New(1, 1024),
		"m-1": resource.New(2, 512),
		"m-2": {},
		"m-3": resource.New(1, 1024),
		"m-4": {},
	} {
		if got := c.Machine(id); got != want {
			t.Errorf("Machine(%s) = %v, want %v", id, got, want)
		}
	}
	if got, want := c.Capacity(), resource.New(4, 2560); got != want {
		t.Fatalf("Capacity = %v, want %v", got, want)
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
