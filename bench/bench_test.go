package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestMiniature plays a miniature of every workload end to end: two
// timed passes over the real ftrm binary plus the traced pass, with the
// determinism guard and every correctness check on. It also pins
// BENCHMARK.json to what the harness reports: same workloads, same
// metric names and units, in the same order.
func TestMiniature(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if decl.RunSeconds != refSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, workloads are sized for %d", decl.RunSeconds, refSeconds)
	}
	specs := workloads()
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(decl.Workloads), len(specs))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildRM(outDir)
	if err != nil {
		t.Fatal(err)
	}
	report := io.Discard
	if testing.Verbose() {
		report = os.Stdout
	}
	for i, sp := range specs {
		if decl.Workloads[i].Name != sp.name {
			t.Errorf("BENCHMARK.json workload %d is %q, harness has %q", i, decl.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel() // nothing here is a measurement
			out, err := runWorkload(bin, sp, 1, 1, 2, true, report)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 {
				t.Errorf("correct=%v failed=%d of %d (run go test -v for the report)", out.correct, out.failed, out.attempted)
			}
			sameNames(t, "end_to_end", decl.EndToEnd, out.endToEnd)
			sameNames(t, "per_layer", decl.PerLayer, out.perLayer)
		})
	}
}

func sameNames(t *testing.T, what string, want []declared, got metrics) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, harness reports %d", what, len(want), len(got))
		return
	}
	for i, w := range want {
		if w.Name != got[i].name || w.Unit != got[i].unit {
			t.Errorf("%s: metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", what, i, w.Name, w.Unit, got[i].name, got[i].unit)
		}
	}
}
