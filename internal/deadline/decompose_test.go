package deadline

import (
	"math/rand"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

const slot = 10 * time.Second

var bigCluster = resource.New(1000, 1<<20)

func job(tasks int, dur time.Duration) workflow.Job {
	return workflow.Job{
		Name:         "j",
		Tasks:        tasks,
		TaskDuration: dur,
		TaskDemand:   resource.New(1, 1024),
	}
}

// chain builds submit=0 workflow j0 -> j1 -> ... -> jn-1.
func chain(t *testing.T, n int, deadline time.Duration) *workflow.Workflow {
	t.Helper()
	w := workflow.New("chain", 0, deadline)
	prev := -1
	for i := 0; i < n; i++ {
		id := w.AddJob(job(4, 30*time.Second))
		if prev >= 0 {
			w.AddDep(prev, id)
		}
		prev = id
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return w
}

func TestDecomposeValidation(t *testing.T) {
	w := chain(t, 2, 10*time.Minute)
	if _, err := Decompose(w, Options{Slot: 0, ClusterCap: bigCluster}); err == nil {
		t.Error("zero slot accepted")
	}
	tight := chain(t, 2, 5*time.Second) // window shorter than one slot
	if _, err := Decompose(tight, Options{Slot: slot, ClusterCap: bigCluster}); err == nil {
		t.Error("sub-slot window accepted")
	}
	tiny := chain(t, 2, 10*time.Minute)
	if _, err := Decompose(tiny, Options{Slot: slot, ClusterCap: resource.New(0, 1)}); err == nil {
		t.Error("cluster that cannot host the job accepted")
	}
}

func TestDecomposeChainPartitionsWindow(t *testing.T) {
	// 3 equal jobs in a chain, window 0..600s: equal demands mean windows
	// of 200s each, partitioning the window exactly.
	w := chain(t, 3, 600*time.Second)
	res, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster})
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if res.Method != ResourceDemand {
		t.Fatalf("Method = %v, want ResourceDemand", res.Method)
	}
	var prevEnd time.Duration
	for i, win := range res.Windows {
		if win.Release != prevEnd {
			t.Errorf("job %d release = %v, want %v (contiguous)", i, win.Release, prevEnd)
		}
		if got := win.Deadline - win.Release; got != 200*time.Second {
			t.Errorf("job %d window = %v, want 200s", i, got)
		}
		prevEnd = win.Deadline
	}
	if prevEnd != 600*time.Second {
		t.Errorf("last deadline = %v, want 600s (whole window used)", prevEnd)
	}
}

func TestDecomposePaperFig3Proportions(t *testing.T) {
	// The paper's Fig. 3: job 0 fans out to jobs 1..n-1 which all feed job
	// n; equal runtimes and demands. The middle set must receive
	// (n-1)/(n+1) of the distributed slack, versus 1/3 under the
	// critical-path approach.
	const n = 10                    // 9 middle jobs, 11 jobs total
	w := workflow.New("fig3", 0, 0) // deadline set below
	src := w.AddJob(job(1, 10*time.Second))
	var mids []int
	for i := 0; i < n-1; i++ {
		mids = append(mids, w.AddJob(job(1, 10*time.Second)))
	}
	sink := w.AddJob(job(1, 10*time.Second))
	for _, m := range mids {
		w.AddDep(src, m)
		w.AddDep(m, sink)
	}
	// minrt = 1 slot per set; choose slack divisible by n+1 = 11:
	// total = 3 + 110 slots.
	w.Deadline = time.Duration(113) * slot
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	res, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster})
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// Middle set: minrt 1 + slack share 110*(n-1)/(n+1) = 110*9/11 = 90.
	midWin := res.Windows[mids[0]]
	if got := int64((midWin.Deadline - midWin.Release) / slot); got != 91 {
		t.Errorf("middle window = %d slots, want 91 (1 minrt + 90 slack)", got)
	}
	// All middle jobs share the window.
	for _, m := range mids {
		if res.Windows[m] != midWin {
			t.Errorf("middle job %d window %v differs from %v", m, res.Windows[m], midWin)
		}
	}
	// Versus critical path: middle job would get about 1/3 of the window.
	cp, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster, ForceCriticalPath: true})
	if err != nil {
		t.Fatalf("Decompose(CP): %v", err)
	}
	cpWin := cp.Windows[mids[0]]
	cpSlots := int64((cpWin.Deadline - cpWin.Release) / slot)
	if cpSlots < 36 || cpSlots > 39 { // ~113/3
		t.Errorf("critical-path middle window = %d slots, want ~37 (1/3 of deadline)", cpSlots)
	}
}

func TestDecomposeFallsBackWhenSlackNegative(t *testing.T) {
	// 3-chain of 30s jobs needs 9 slots minimum; give it only 8.
	w := chain(t, 3, 80*time.Second)
	res, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster})
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if res.Method != CriticalPath {
		t.Errorf("Method = %v, want CriticalPath fallback", res.Method)
	}
}

// TestForcedCriticalPathErrsWhenDecomposeErrs is what lets a caller take
// Decompose's error as final: Decompose already falls back to the
// critical path on negative slack, and every workflow it refuses — a
// window shorter than one slot, a job needing a resource kind the cluster
// has none of — the forced critical path refuses with the same error. Over
// random DAGs, deadlines and clusters, both a refusal and a fallback must
// occur.
func TestForcedCriticalPathErrsWhenDecomposeErrs(t *testing.T) {
	var refused, fellBack int
	for seed := int64(0); seed < 5000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(12)
		w, err := workload.RandomDAGWorkflow(rng, "w", nodes, rng.Intn(2*nodes), time.Duration(1+rng.Int63n(int64(2*time.Hour))))
		if err != nil {
			t.Fatalf("seed %d: RandomDAGWorkflow: %v", seed, err)
		}
		opts := Options{Slot: time.Duration(1+rng.Intn(60)) * time.Second, ClusterCap: resource.New(rng.Int63n(64), rng.Int63n(256*1024))}
		res, err := Decompose(w, opts)
		if err == nil {
			if res.Method == CriticalPath {
				fellBack++
			}
			continue
		}
		refused++
		opts.ForceCriticalPath = true
		if _, cpErr := Decompose(w, opts); cpErr == nil || cpErr.Error() != err.Error() {
			t.Fatalf("seed %d: Decompose refused with %q, the forced critical path answered %v", seed, err, cpErr)
		}
	}
	if refused == 0 || fellBack == 0 {
		t.Fatalf("%d refusals and %d critical-path fallbacks: the sweep exercised too little", refused, fellBack)
	}
	t.Logf("%d refusals, %d critical-path fallbacks", refused, fellBack)
}

func TestCriticalPathWindowsRespectPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		w := workflow.New("rand", 0, time.Duration(n*20+rng.Intn(600))*time.Second)
		for i := 0; i < n; i++ {
			w.AddJob(job(1+rng.Intn(5), time.Duration(10+rng.Intn(50))*time.Second))
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.3 {
					w.AddDep(a, b)
				}
			}
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for _, force := range []bool{false, true} {
			res, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster, ForceCriticalPath: force})
			if err != nil {
				t.Fatalf("Decompose(force=%v): %v", force, err)
			}
			dag := w.DAG()
			for v := 0; v < n; v++ {
				win := res.Windows[v]
				if win.Release < w.Submit || win.Deadline > w.Deadline {
					t.Fatalf("trial %d: window %v outside workflow window", trial, win)
				}
				if win.Deadline <= win.Release {
					t.Fatalf("trial %d: empty window %v", trial, win)
				}
				for _, p := range dag.Predecessors(v) {
					if res.Windows[p].Deadline > win.Release {
						t.Fatalf("trial %d (force=%v): pred %d deadline %v after job %d release %v",
							trial, force, p, res.Windows[p].Deadline, v, win.Release)
					}
				}
			}
		}
	}
}

func TestDecomposeDemandSkew(t *testing.T) {
	// Two-set chain where set 2 has 9x the demand: slack must split 1:9.
	w := workflow.New("skew", 0, 0)
	a := w.AddJob(job(1, 10*time.Second)) // volume 1 core-slot
	b := w.AddJob(job(9, 10*time.Second)) // volume 9 core-slots
	w.AddDep(a, b)
	w.Deadline = time.Duration(2+100) * slot // minrt 2, slack 100
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res, err := Decompose(w, Options{Slot: slot, ClusterCap: bigCluster})
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	aSlots := int64((res.Windows[a].Deadline - res.Windows[a].Release) / slot)
	bSlots := int64((res.Windows[b].Deadline - res.Windows[b].Release) / slot)
	if aSlots != 11 { // 1 + 100/10
		t.Errorf("low-demand window = %d slots, want 11", aSlots)
	}
	if bSlots != 91 { // 1 + 900/10
		t.Errorf("high-demand window = %d slots, want 91", bSlots)
	}
}

func TestApportion(t *testing.T) {
	tests := []struct {
		name    string
		total   int64
		weights []float64
		want    []int64
	}{
		{"proportional", 10, []float64{1, 4}, []int64{2, 8}},
		{"rounding", 10, []float64{1, 1, 1}, []int64{4, 3, 3}},
		{"zero total", 0, []float64{1, 2}, []int64{0, 0}},
		{"zero weights even split", 7, []float64{0, 0, 0}, []int64{3, 2, 2}},
		{"empty", 5, nil, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := apportion(tt.total, tt.weights, sum(tt.weights))
			if len(got) != len(tt.want) {
				t.Fatalf("apportion = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("apportion = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestApportionConservesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 10
		}
		total := int64(rng.Intn(1000))
		got := apportion(total, weights, sum(weights))
		var s int64
		for _, g := range got {
			if g < 0 {
				t.Fatalf("negative share in %v", got)
			}
			s += g
		}
		if s != total {
			t.Fatalf("shares %v sum to %d, want %d", got, s, total)
		}
	}
}

func TestMethodString(t *testing.T) {
	if ResourceDemand.String() != "resource-demand" || CriticalPath.String() != "critical-path" {
		t.Error("Method.String mismatch")
	}
	if Method(0).String() != "method(0)" {
		t.Error("unknown method string mismatch")
	}
}
