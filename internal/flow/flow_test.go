package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLexMinMaxSpreadsOneJob(t *testing.T) {
	// Demand 3 over two slots of capacity 2: 1.5 + 1.5, level 0.75.
	sky, err := LexMinMax([]int64{2, 2}, []Job{{Demand: 3, Rel: 0, Dl: 2, Cap: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tt, lv := range sky.Level {
		if lv != 0.75 || sky.Load[tt] != 1.5 || !sky.Exact[tt] {
			t.Errorf("slot %d: level %g load %g exact %v, want 0.75, 1.5, true", tt, lv, sky.Load[tt], sky.Exact[tt])
		}
	}
	if sky.Levels != 1 {
		t.Errorf("Levels = %d, want 1", sky.Levels)
	}
}

func TestLexMinMaxLevelsBelowTheFirst(t *testing.T) {
	// Job 0 is pinned to slot 0 (level 1.0 there whatever else happens);
	// job 1 then flattens over slots 1 and 2 alone: 0.5 each.
	caps := []int64{4, 4, 4}
	jobs := []Job{
		{Demand: 4, Rel: 0, Dl: 1, Cap: 4},
		{Demand: 4, Rel: 0, Dl: 3, Cap: 4},
	}
	sky, err := LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.5}
	for tt := range caps {
		if sky.Level[tt] != want[tt] {
			t.Errorf("slot %d level %g, want %g", tt, sky.Level[tt], want[tt])
		}
	}
	if sky.Levels != 2 {
		t.Errorf("Levels = %d, want 2", sky.Levels)
	}
	if got := sky.Alloc[1]; got[0] != 0 || got[1] != 2 || got[2] != 2 {
		t.Errorf("job 1 alloc %v, want [0 2 2]", got)
	}

	// Capped at one level: slot 0 is exact, the others take whatever the
	// flow that proved level 1.0 did — at or under it, demand conserved.
	one, err := LexMinMax(caps, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Exact[0] || one.Level[0] != 1 || one.Exact[1] || one.Exact[2] {
		t.Errorf("capped: level %v exact %v, want slot 0 alone exact at 1", one.Level, one.Exact)
	}
	if sum := one.Load[0] + one.Load[1] + one.Load[2]; sum != 8 {
		t.Errorf("capped: total load %g, want 8", sum)
	}
}

func TestLexMinMaxForcedLoadOnLowerSlots(t *testing.T) {
	// Job 0 needs both its slots full (cap 3 x 2 = demand 6): slot 0 is
	// shared with the pinned job 1 and sets the top level, and job 0's
	// forced 3 on slot 1 is that slot's whole load one level down.
	caps := []int64{10, 10}
	jobs := []Job{
		{Demand: 6, Rel: 0, Dl: 2, Cap: 3},
		{Demand: 5, Rel: 0, Dl: 1, Cap: 5},
	}
	sky, err := LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sky.Level[0] != 0.8 || sky.Level[1] != 0.3 {
		t.Errorf("levels %v, want [0.8 0.3]", sky.Level)
	}
}

func TestLexMinMaxInfeasibleAndDegenerate(t *testing.T) {
	for name, tc := range map[string]struct {
		caps []int64
		jobs []Job
	}{
		"demand beyond cap x window": {[]int64{5}, []Job{{Demand: 3, Rel: 0, Dl: 1, Cap: 2}}},
		"only a dead slot":           {[]int64{0, 4}, []Job{{Demand: 1, Rel: 0, Dl: 1, Cap: 1}}},
		"zero parallelism":           {[]int64{4}, []Job{{Demand: 1, Rel: 0, Dl: 1, Cap: 0}}},
	} {
		if _, err := LexMinMax(tc.caps, tc.jobs, 0); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
	sky, err := LexMinMax([]int64{3, 0}, []Job{{Demand: 0, Rel: 0, Dl: 2, Cap: 1}}, 0)
	if err != nil || sky.Levels != 0 || sky.Load[0] != 0 {
		t.Errorf("no demand: %+v, %v; want an empty skyline", sky, err)
	}
	if _, err := LexMinMax([]int64{3}, []Job{{Demand: 1, Rel: 0, Dl: 2, Cap: 1}}, 0); err == nil {
		t.Error("window past the last slot accepted")
	}
	if _, err := LexMinMax([]int64{-1}, nil, 0); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestOverflowIsAnErrorNotAWrap(t *testing.T) {
	big := int64(math.MaxInt64 / 2)
	caps := []int64{big, big - 1, 7}
	jobs := []Job{
		{Demand: big, Rel: 0, Dl: 3, Cap: big},
		{Demand: big / 3, Rel: 1, Dl: 3, Cap: big},
	}
	if _, err := LexMinMax(caps, jobs, 0); !errors.Is(err, ErrOverflow) {
		t.Errorf("LexMinMax err = %v, want ErrOverflow", err)
	}
	// Stage A never scales, so the same sizes are fine there.
	short, _, err := Shortfall(caps, jobs, []int{0, 1})
	if err != nil || short[0] != 0 || short[1] != 0 {
		t.Errorf("Shortfall = %v, %v; want all routed", short, err)
	}
}

func TestShortfallExactUnderParallelismCaps(t *testing.T) {
	// The instance EDF water-filling gets wrong: capacity 2 per slot,
	// X = {window [0,3), cap 1, demand 3}, Y = {window [0,2), cap 2,
	// demand 2}. Y first takes both units of slot 0 greedily; the flow
	// reroutes it to 1+1 so X fits too.
	caps := []int64{2, 2, 2}
	jobs := []Job{
		{Demand: 3, Rel: 0, Dl: 3, Cap: 1},
		{Demand: 2, Rel: 0, Dl: 2, Cap: 2},
	}
	short, _, err := Shortfall(caps, jobs, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if short[0] != 0 || short[1] != 0 {
		t.Errorf("shortfall %v, want none", short)
	}
}

func TestShortfallLandsOnTheLatestInOrder(t *testing.T) {
	// Two slots of capacity 10, demand 26 against room for 20: whoever
	// comes last in the order is 6 short, and the total never changes.
	caps := []int64{10, 10}
	jobs := []Job{
		{Demand: 13, Rel: 0, Dl: 2, Cap: 13},
		{Demand: 13, Rel: 0, Dl: 2, Cap: 13},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		short, _, err := Shortfall(caps, jobs, order)
		if err != nil {
			t.Fatal(err)
		}
		first, lastJ := order[0], order[1]
		if short[first] != 0 || short[lastJ] != 6 {
			t.Errorf("order %v: shortfall %v, want 6 on job %d only", order, short, lastJ)
		}
	}
	// A window wider than cap x slots is short on its own.
	short, _, err := Shortfall([]int64{100, 100}, []Job{{Demand: 26, Rel: 0, Dl: 2, Cap: 10}}, []int{0})
	if err != nil || short[0] != 6 {
		t.Errorf("shortfall = %v, %v; want 6", short, err)
	}
	if _, _, err := Shortfall(caps, jobs, []int{0, 0}); err == nil {
		t.Error("repeated order entry accepted")
	}
}

// genInstance draws a planner-shaped instance: windows, parallelism caps
// and the odd dead slot, with demand sized so it fits its own window.
func genInstance(rng *rand.Rand, nJobs, nSlots, maxWin int, slotCap int64) ([]int64, []Job) {
	caps := make([]int64, nSlots)
	for t := range caps {
		if rng.Intn(20) != 0 {
			caps[t] = slotCap
		}
	}
	jobs := make([]Job, nJobs)
	for j := range jobs {
		rel := rng.Intn(nSlots - 1)
		win := 2 + rng.Intn(min(maxWin, nSlots-rel)-1)
		live := int64(0)
		for t := rel; t < rel+win; t++ {
			if caps[t] > 0 {
				live++
			}
		}
		par := int64(1 + rng.Intn(16))
		jobs[j] = Job{Demand: rng.Int63n(live*par + 1), Rel: int64(rel), Dl: int64(rel + win), Cap: par}
	}
	return caps, jobs
}

// checkSkyline verifies a skyline from the inside: allocations within
// windows, parallelism caps and live slots, demand conserved, loads and
// levels consistent with the allocation.
func checkSkyline(t testing.TB, caps []int64, jobs []Job, sky *Skyline) {
	t.Helper()
	// Relative: the fuzz target feeds magnitudes where a float64 sum is
	// only good to a few units.
	const tol = 1e-9
	near := func(a, b float64, terms int) bool {
		return math.Abs(a-b) <= tol*float64(terms+1)*math.Max(1, math.Abs(b))
	}
	load := make([]float64, len(caps))
	for j, job := range jobs {
		sum := 0.0
		for i, x := range sky.Alloc[j] {
			slot := job.Rel + int64(i)
			if x < 0 || x > float64(job.Cap) && !near(x, float64(job.Cap), 1) {
				t.Fatalf("job %d slot %d: allocation %g outside [0, %d]", j, slot, x, job.Cap)
			}
			if x > 0 && caps[slot] == 0 {
				t.Fatalf("job %d: allocation %g on dead slot %d", j, x, slot)
			}
			sum += x
			load[slot] += x
		}
		if !near(sum, float64(job.Demand), len(caps)) {
			t.Fatalf("job %d: allocated %g of demand %d", j, sum, job.Demand)
		}
	}
	for slot, c := range caps {
		if !near(sky.Load[slot], load[slot], len(jobs)) {
			t.Fatalf("slot %d: reported load %g, allocations sum to %g", slot, sky.Load[slot], load[slot])
		}
		if c > 0 && !near(sky.Level[slot]*float64(c), sky.Load[slot], 1) {
			t.Fatalf("slot %d: level %g x cap %d != load %g", slot, sky.Level[slot], c, sky.Load[slot])
		}
	}
}

func TestSkylineInvariantsAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(30), 2+rng.Intn(40), 25, 1+rng.Int63n(64))
		for _, maxLevels := range []int{0, 1, 4} {
			sky, err := LexMinMax(caps, jobs, maxLevels)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			checkSkyline(t, caps, jobs, sky)
			again, err := LexMinMax(caps, jobs, maxLevels)
			if err != nil {
				t.Fatal(err)
			}
			for slot := range caps {
				if sky.Load[slot] != again.Load[slot] || sky.Level[slot] != again.Level[slot] {
					t.Fatalf("case %d: slot %d differs between two runs on one input", i, slot)
				}
			}
			if maxLevels > 0 && sky.Levels > maxLevels {
				t.Fatalf("case %d: solved %d levels, cap %d", i, sky.Levels, maxLevels)
			}
		}
	}
}

// FuzzFlowSkyline throws adversarial capacities, demands and windows at
// both stages: no panic, every error a declared one or a validation
// message, and every skyline returned passes the interior checks.
func FuzzFlowSkyline(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), int64(4), int64(6), uint8(0))
	f.Add(int64(7), uint8(12), uint8(30), int64(512), int64(4000), uint8(4))
	f.Add(int64(9), uint8(2), uint8(2), int64(0), int64(1), uint8(1))
	f.Add(int64(3), uint8(5), uint8(9), int64(math.MaxInt64/2), int64(math.MaxInt64/3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nJobs, nSlots uint8, capMax, demandMax int64, maxLevels uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(nSlots)%48
		if capMax < 0 {
			capMax = -(capMax + 1)
		}
		if demandMax < 0 {
			demandMax = -(demandMax + 1)
		}
		caps := make([]int64, m)
		for slot := range caps {
			if rng.Intn(5) != 0 && capMax > 0 {
				caps[slot] = rng.Int63n(capMax) + 1
			}
		}
		jobs := make([]Job, int(nJobs)%24)
		order := rng.Perm(len(jobs))
		for j := range jobs {
			rel := rng.Intn(m)
			jobs[j] = Job{
				Demand: rng.Int63n(demandMax/int64(len(jobs)) + 1),
				Rel:    int64(rel),
				Dl:     int64(rel + 1 + rng.Intn(m-rel)),
				Cap:    rng.Int63n(demandMax/2 + 2),
			}
		}

		short, _, err := Shortfall(caps, jobs, order)
		if err != nil {
			t.Fatalf("Shortfall: %v", err) // stage A scales nothing: it cannot overflow
		}
		for j, s := range short {
			if s < 0 || s > jobs[j].Demand {
				t.Fatalf("job %d: shortfall %d of demand %d", j, s, jobs[j].Demand)
			}
			jobs[j].Demand -= s
		}
		// What stage A routed fits under the hard caps, so stage B must
		// route it with every level at or under 1.
		sky, err := LexMinMax(caps, jobs, int(maxLevels)%6)
		if errors.Is(err, ErrOverflow) {
			return
		}
		if err != nil {
			t.Fatalf("LexMinMax after Shortfall: %v", err)
		}
		checkSkyline(t, caps, jobs, sky)
		for slot, lv := range sky.Level {
			if lv > 1+1e-9 {
				t.Fatalf("slot %d: level %g above 1 on demand that fits the hard caps", slot, lv)
			}
		}
	})
}

func BenchmarkLexMinMax(b *testing.B) {
	for _, size := range []struct {
		name                string
		jobs, slots, maxWin int
	}{
		{"120x120", 120, 120, 60},
		{"5000x1000", 5000, 1000, 12},
	} {
		caps, jobs := genInstance(rand.New(rand.NewSource(5)), size.jobs, size.slots, size.maxWin, 512)
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LexMinMax(caps, jobs, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
