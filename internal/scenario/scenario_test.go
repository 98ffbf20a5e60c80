package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
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

// TestWriteTraceRoundTrip checks the written document is a valid native
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
		t.Fatalf("Read rejects the written trace: %v", err)
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

// TestSmokeTraceIsItsGenerator pins the bundled smoke trace to the command
// that made it, ftgen -scenario flash -machines 40 -days 1 -seed 42: a
// generator change that moves a single draw changes these bytes.
func TestSmokeTraceIsItsGenerator(t *testing.T) {
	want, err := os.ReadFile("../../testdata/scenario-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Generate(Spec{Name: "flash", Machines: 40, Days: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := sc.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the flash scenario at seed 42 writes %d bytes that differ from testdata/scenario-smoke.json (%d bytes); regenerate it with ftgen only if the change is meant to move the draws", got.Len(), len(want))
	}
}

// TestGeneratorsArePinned pins every generator at smallSpec: the sha256
// of its written trace and of its machine events. A change that moves a
// single draw of any generator moves one of these digests; refresh them
// only when the change is meant to move the draws.
func TestGeneratorsArePinned(t *testing.T) {
	want := map[string][2]string{ // name → {trace, events}
		"diurnal":    {"5ab6720a13044935fa8cb0aec2e42a3df261243cd0e000bd89f976048a553d8d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		"flash":      {"e0518f771adff086aa1075913cd925a5876074b6be5a035424415b4a1caa56ab", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		"stragglers": {"8e13dfcdb215c2070100343a9191567d4016187d7b53dcb35d229790fa2e91ec", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		"churn":      {"826d9cb294c04699904f9fa606d3ff29bf785dec745d7da8800a2aa5755d2fde", "6bcbcbd5a542fe88ab2263bc054c4e47c58e7799bea1c7d0e605a2e0ae729387"},
		"energy":     {"738ab6c578c424fc45cdcd70e2694b8c733ecdf7043bbd7cdf6bd49b02fefb82", "9d83a7dc8dab60d7f0b77ebbac07f978d8c076f36abb044eb2454e37ffd529da"},
	}
	for _, name := range Names() {
		sc, err := Generate(smallSpec(name))
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		var buf bytes.Buffer
		if err := sc.WriteTrace(&buf); err != nil {
			t.Fatalf("%s: WriteTrace: %v", name, err)
		}
		events := sha256.New()
		for _, e := range sc.Events {
			fmt.Fprintf(events, "%+v\n", e)
		}
		got := [2]string{fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), fmt.Sprintf("%x", events.Sum(nil))}
		if got != want[name] {
			t.Errorf("%s: (trace, events) sha256 = %q, want %q", name, got, want[name])
		}
	}
}
