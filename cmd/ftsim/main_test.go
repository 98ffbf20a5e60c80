package main

import (
	"strings"
	"testing"

	"flowtime/internal/machine"
	"flowtime/internal/resource"
)

func TestDipFlagAccepts(t *testing.T) {
	var d dipFlags
	for _, s := range []string{"120:240:50", "0:10:0", "500:600:100"} {
		if err := d.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	if len(d) != 3 {
		t.Fatalf("len = %d, want 3 accumulated windows", len(d))
	}
	if d[0] != (dipWindow{from: 120, until: 240, pct: 50}) {
		t.Fatalf("d[0] = %+v", d[0])
	}
	if got := d.String(); got != "120:240:50,0:10:0,500:600:100" {
		t.Fatalf("String = %q", got)
	}
}

func TestDipFlagRejects(t *testing.T) {
	cases := []struct{ in, want string }{
		{"240:120:50", "from < until"},           // inverted window
		{"120:120:50", "from < until"},           // empty window
		{"-5:10:50", "negative"},                 // negative start
		{"0:10:150", "outside [0, 100]"},         // percent too high
		{"0:10:-1", "outside [0, 100]"},          // percent negative
		{"0:10", "want from:until:percent"},      // too few fields
		{"0:10:50:2", "want from:until:percent"}, // too many fields
		{"a:10:50", "not an integer"},            // non-numeric from
		{"0:b:50", "not an integer"},             // non-numeric until
		{"0:10:c", "not an integer"},             // non-numeric percent
		{"0:10:50 trailing", "not an integer"},   // trailing garbage
		{"", "want from:until:percent"},          // empty
	}
	for _, tc := range cases {
		var d dipFlags
		err := d.Set(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Set(%q): err = %v, want %q", tc.in, err, tc.want)
		}
		if len(d) != 0 {
			t.Errorf("Set(%q) appended despite error", tc.in)
		}
	}
}

// TestDipFlagRefusesOverlap: two windows that share a slot have no single
// meaning (multiply the fractions? let the later one win?), so the second
// is refused with both named. Windows that only touch are fine.
func TestDipFlagRefusesOverlap(t *testing.T) {
	var d dipFlags
	if err := d.Set("100:200:50"); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"150:250:25", "50:101:25", "120:130:25", "0:300:25", "100:200:50"} {
		err := d.Set(in)
		if err == nil || !strings.Contains(err.Error(), "[100, 200)") || !strings.Contains(err.Error(), in) {
			t.Errorf("Set(%q) after 100:200:50: err = %v, want an overlap error naming both windows", in, err)
		}
	}
	for _, in := range []string{"200:250:25", "50:100:25"} {
		if err := d.Set(in); err != nil {
			t.Errorf("Set(%q), which only touches [100, 200): %v", in, err)
		}
	}
	if len(d) != 3 {
		t.Errorf("%d windows accumulated, want 3", len(d))
	}
}

// TestDipWindowsMeanTheSameInBothModes compiles two windows — given out
// of order, the second ending on the slot the first begins — for the
// aggregate cluster and for the same capacity as ten machines: the two
// profiles agree slot by slot, and say what the flags said.
func TestDipWindowsMeanTheSameInBothModes(t *testing.T) {
	var d dipFlags
	for _, s := range []string{"30:50:25", "10:30:50", "70:80:0"} {
		if err := d.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	aggregate, err := aggregateProfile(160, 10*4096, d.events())
	if err != nil {
		t.Fatal(err)
	}
	// Machine mode merges the dips into the machine set's own events.
	events := append([]machine.Event{{Slot: 5, Kind: machine.Fail, ID: "m-9"},
		{Slot: 5, Kind: machine.Join, Spec: machine.Spec{ID: "m-9", Capacity: resource.New(16, 4096)}}}, d.events()...)
	machine.SortEvents(events)
	machines, err := machine.NewProfile(machine.Homogeneous("m", 10, resource.New(16, 4096)), events)
	if err != nil {
		t.Fatal(err)
	}
	for slot := int64(0); slot < 100; slot++ {
		pct := int64(100)
		switch {
		case slot >= 10 && slot < 30:
			pct = 50
		case slot >= 30 && slot < 50:
			pct = 25
		case slot >= 70 && slot < 80:
			pct = 0
		}
		want := resource.New(160*pct/100, 10*4096*pct/100)
		if a, m := aggregate.CapAt(slot), machines.CapAt(slot); a != want || m != want {
			t.Fatalf("slot %d: aggregate mode %v, machine mode %v, want %v", slot, a, m, want)
		}
	}
}
