package scenario

import (
	"bytes"
	"strings"
	"testing"

	"flowtime/internal/machine"
	"flowtime/internal/trace"
)

// smallSpec keeps generator tests fast.
func smallSpec(name string) Spec {
	return Spec{Name: name, Seed: 7, Machines: 40, Days: 1}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var a, b bytes.Buffer
			sc1, err := Generate(smallSpec(name))
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if err := sc1.WriteTrace(&a); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			sc2, err := Generate(smallSpec(name))
			if err != nil {
				t.Fatalf("Generate (second run): %v", err)
			}
			if err := sc2.WriteTrace(&b); err != nil {
				t.Fatalf("WriteTrace (second run): %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("two generations from the same seed are not byte-identical")
			}
			// A different seed must actually change the trace.
			spec := smallSpec(name)
			spec.Seed = 8
			sc3, err := Generate(spec)
			if err != nil {
				t.Fatalf("Generate (seed 8): %v", err)
			}
			var c bytes.Buffer
			if err := sc3.WriteTrace(&c); err != nil {
				t.Fatalf("WriteTrace (seed 8): %v", err)
			}
			if bytes.Equal(a.Bytes(), c.Bytes()) {
				t.Fatal("different seeds generated identical traces")
			}
		})
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate(Spec{Name: "volcano"}); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Fatalf("err = %v, want unknown-generator", err)
	}
}

// TestGeneratedEventsReplay replays every generator's event stream
// through a real cluster: events must be slot-sorted and individually
// applicable (no leave of a dead machine, no double join).
func TestGeneratedEventsReplay(t *testing.T) {
	for _, name := range Names() {
		sc, err := Generate(smallSpec(name))
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		if _, err := machine.NewProfile(sc.Machines, sc.Events); err != nil {
			t.Fatalf("%s: event stream does not replay: %v", name, err)
		}
		for _, e := range sc.Events {
			if e.Slot >= sc.Horizon {
				t.Fatalf("%s: event %+v beyond horizon %d", name, e, sc.Horizon)
			}
		}
	}
}

// TestScenarioShapes spot-checks that each generator layers its
// signature stress on the base.
func TestScenarioShapes(t *testing.T) {
	churn, err := Generate(smallSpec("churn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Events) == 0 {
		t.Fatal("churn scenario has no machine events")
	}
	energy, err := Generate(smallSpec("energy"))
	if err != nil {
		t.Fatal(err)
	}
	scales := 0
	for _, e := range energy.Events {
		if e.Kind == machine.SetScale {
			scales++
		}
	}
	if scales == 0 {
		t.Fatal("energy scenario has no scale events")
	}
	diurnal, err := Generate(smallSpec("diurnal"))
	if err != nil {
		t.Fatal(err)
	}
	flash, err := Generate(smallSpec("flash"))
	if err != nil {
		t.Fatal(err)
	}
	if len(flash.AdHoc) <= len(diurnal.AdHoc) {
		t.Fatalf("flash (%d ad-hoc) should exceed diurnal (%d)", len(flash.AdHoc), len(diurnal.AdHoc))
	}
	strag, err := Generate(smallSpec("stragglers"))
	if err != nil {
		t.Fatal(err)
	}
	inflated := 0
	for _, w := range strag.Workflows {
		for i := 0; i < w.NumJobs(); i++ {
			j := w.Job(i)
			if j.ActualTaskDuration > j.TaskDuration {
				inflated++
			}
		}
	}
	if inflated == 0 {
		t.Fatal("stragglers scenario inflated no actual durations")
	}
}

// TestWriteTraceRoundTrip checks the streamed document is a valid native
// trace: Read accepts it, meta survives, and the workload converts.
func TestWriteTraceRoundTrip(t *testing.T) {
	sc, err := Generate(smallSpec("diurnal"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read rejects streamed trace: %v", err)
	}
	if tr.Meta == nil || tr.Meta.Generator != "scenario/diurnal" || tr.Meta.Seed != 7 {
		t.Fatalf("meta did not round-trip: %+v", tr.Meta)
	}
	wfs, adhoc, err := tr.ToWorkload()
	if err != nil {
		t.Fatalf("ToWorkload: %v", err)
	}
	if len(wfs) != len(sc.Workflows) || len(adhoc) != len(sc.AdHoc) {
		t.Fatalf("round-trip lost records: %d/%d workflows, %d/%d ad-hoc",
			len(wfs), len(sc.Workflows), len(adhoc), len(sc.AdHoc))
	}
}
