package deadline_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/rmstate"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// TestDecomposeAtClusterScale: the paper's Fig. 6 DAG of 200 nodes on a
// cluster of 10,240 nodes of 64 vcores and 1 TB each, whose capacities
// share the factor 2³¹·5, weighs its sets well inside 64 bits, and the
// oracle's exact split accepts what it decomposes.
func TestDecomposeAtClusterScale(t *testing.T) {
	w, err := workload.RandomDAGWorkflow(rand.New(rand.NewSource(1)), "fig6", 200, 5970, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	opts := deadline.Options{Slot: 10 * time.Second, ClusterCap: resource.New(10240*64, 10240<<20)}
	for _, force := range []bool{false, true} {
		opts.ForceCriticalPath = force
		res, err := deadline.Decompose(w, opts)
		if err != nil {
			t.Fatalf("force=%v: %v", force, err)
		}
		if err := oracle.CheckDecomposition(w, opts, res); err != nil {
			t.Fatalf("force=%v: %v", force, err)
		}
	}
}

// TestDecomposeRefusesPast64Bits: capacities whose lcm, or a set weight
// in units of 1/lcm, does not fit 64 bits are refused with the workflow
// named, never wrapped, and the RM admits such a workflow best-effort.
func TestDecomposeRefusesPast64Bits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cap    resource.Vector
		tasks  int
		demand resource.Vector
	}{
		// 3²⁵ and 2⁴⁰ are coprime: their lcm is about 2⁷⁹.
		{"coprime capacities", resource.New(847_288_609_443, 1<<40), 1, resource.New(1, 1024)},
		// The lcm (2³²−1)·2³¹ fits, but 2³³ vcores a task weigh 2⁶⁴ and more.
		{"weight past 64 bits", resource.New(1<<32-1, 1<<31), 1, resource.New(1<<33, 1)},
		// 2²³ tasks of 2⁴⁰ a kind for 6 slots: each volume, 6·2⁶³, wraps
		// int64 to 0, and no set may weigh nothing.
		{"volume wrapped to zero", resource.New(1<<41, 1<<41), 1 << 23, resource.New(1<<40, 1<<40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workflow.New("wf-wide", 0, time.Hour)
			a := w.AddJob(workflow.Job{Name: "a", Tasks: tc.tasks, TaskDuration: time.Minute, TaskDemand: tc.demand})
			b := w.AddJob(workflow.Job{Name: "b", Tasks: tc.tasks, TaskDuration: time.Minute, TaskDemand: tc.demand})
			w.AddDep(a, b)
			opts := deadline.Options{Slot: 10 * time.Second, ClusterCap: tc.cap}
			if _, err := deadline.Decompose(w, opts); err == nil || !strings.Contains(err.Error(), "workflow wf-wide: demand weights do not fit 64 bits") {
				t.Fatalf("Decompose answered %v, want the overflow refusal naming wf-wide", err)
			}
			if rec := rmstate.DecideWorkflow(trace.WorkflowRecord{ID: "wf-wide"}, w, 0, opts); !rec.BestEffort {
				t.Fatal("DecideWorkflow did not admit the refused workflow best-effort")
			}
		})
	}
}

// FuzzDecompose draws small DAGs, clusters (up to the whole int64 range,
// coprime ones among them), task demands and deadlines: Decompose must
// refuse, or answer what oracle.CheckDecomposition, which recomputes the
// split in math/big, accepts.
func FuzzDecompose(f *testing.F) {
	f.Add(int64(1), uint8(6), int64(64), int64(1<<17), uint16(90), false)
	f.Add(int64(2), uint8(11), int64(3), int64(7), uint16(8), false)
	f.Add(int64(3), uint8(4), int64(40), int64(80_000), uint16(20), true)
	f.Add(int64(4), uint8(9), int64(847_288_609_443), int64(1<<40), uint16(500), false)
	f.Add(int64(5), uint8(3), int64(1<<32-1), int64(1<<31), uint16(3000), false)
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, capV, capM int64, slots uint16, force bool) {
		rng := rand.New(rand.NewSource(seed))
		const slot = 10 * time.Second
		w := workflow.New("wf-fuzz", 0, time.Duration(slots)*slot)
		n := 1 + int(nodes)%12
		for i := 0; i < n; i++ {
			w.AddJob(workflow.Job{
				Name:         "j",
				Tasks:        1 + rng.Intn(8),
				TaskDuration: time.Duration(1+rng.Intn(100)) * slot,
				// Below 2⁴⁰ a kind, so no volume wraps int64.
				TaskDemand: resource.New(rng.Int63n(1+rng.Int63n(1<<40)), 1+rng.Int63n(1+rng.Int63n(1<<40))),
			})
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					w.AddDep(a, b)
				}
			}
		}
		opts := deadline.Options{Slot: slot, ClusterCap: resource.New(capV, capM), ForceCriticalPath: force}
		res, err := deadline.Decompose(w, opts)
		if err != nil {
			return
		}
		if err := oracle.CheckDecomposition(w, opts, res); err != nil {
			t.Fatal(err)
		}
	})
}
