package flow_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/oracle"
)

// certify holds a skyline to the exact checker.
func certify(t testing.TB, caps []int64, jobs []flow.Job, maxLevels int, sky *flow.Skyline) {
	t.Helper()
	if err := oracle.CheckSolution(instance(caps, jobs), maxLevels, sky); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

func instance(caps []int64, jobs []flow.Job) oracle.Instance {
	in := oracle.Instance{Caps: caps, Jobs: make([]oracle.Job, len(jobs))}
	for j, job := range jobs {
		in.Jobs[j] = oracle.Job(job)
	}
	return in
}

// wantLevels asserts the certificate's levels, highest first, as
// num/den pairs.
func wantLevels(t *testing.T, sky *flow.Skyline, want ...[2]int64) {
	t.Helper()
	if len(sky.Levels) != len(want) {
		t.Fatalf("%d levels %+v, want %v", len(sky.Levels), sky.Levels, want)
	}
	for k, lv := range sky.Levels {
		if lv.Num != want[k][0] || lv.Den != want[k][1] {
			t.Errorf("level %d is %d/%d, want %d/%d", k, lv.Num, lv.Den, want[k][0], want[k][1])
		}
	}
}

func TestLexMinMaxSpreadsOneJob(t *testing.T) {
	// Demand 3 over two slots of capacity 2: 1.5 + 1.5, level 3/4.
	caps, jobs := []int64{2, 2}, []flow.Job{{Demand: 3, Rel: 0, Dl: 2, Cap: 2}}
	sky, err := flow.LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{3, 4})
	for tt, load := range sky.Load {
		if load != 1.5 {
			t.Errorf("slot %d: load %g, want 1.5", tt, load)
		}
	}
	certify(t, caps, jobs, 0, sky)
}

// TestLexMinMaxMotivatingExample is the paper's Fig. 1: workflow W1 is
// two chained jobs, each needing the full cluster for 50 time units within
// a 200-unit deadline. After FlowTime's decomposition job 1 gets [0, 100)
// and job 2 [100, 200); the lexicographic min-max flattens each to half
// the cluster across its window, leaving the other half free for ad-hoc
// jobs at all times — Fig. 1(b). Scaled: a slot is 10 time units.
func TestLexMinMaxMotivatingExample(t *testing.T) {
	caps := make([]int64, 20)
	for i := range caps {
		caps[i] = 10
	}
	jobs := []flow.Job{{Demand: 50, Rel: 0, Dl: 10, Cap: 10}, {Demand: 50, Rel: 10, Dl: 20, Cap: 10}}
	sky, err := flow.LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{1, 2})
	if got := len(sky.Levels[0].Slots); got != 20 {
		t.Errorf("level 1/2 freezes %d slots, want all 20", got)
	}
	for tt, load := range sky.Load {
		if load != 5 {
			t.Errorf("slot %d: load %g, want 5 (half the cluster left for ad-hoc)", tt, load)
		}
	}
	certify(t, caps, jobs, 0, sky)
}

// TestLemma1PowerScalarization checks the paper's Lemma 1 on integer
// skylines: g(u) = Σ_i k^{u_i}, with k the vector's length, orders two
// vectors exactly as their descending-sorted forms compare
// lexicographically — the order the planner's levels are optimal in.
func TestLemma1PowerScalarization(t *testing.T) {
	g := func(u []float64) (sum int64) {
		for _, x := range u {
			sum += int64(math.Pow(float64(len(u)), x))
		}
		return sum
	}
	f := func(a, b [4]uint8) bool {
		u, v := make([]float64, 4), make([]float64, 4)
		for i := range u {
			u[i], v[i] = float64(a[i]%8), float64(b[i]%8)
		}
		us, vs := oracle.SortedDescending(u), oracle.SortedDescending(v)
		switch {
		case oracle.LexLess(us, vs, 0):
			return g(u) < g(v)
		case oracle.LexLess(vs, us, 0):
			return g(u) > g(v)
		default:
			return g(u) == g(v)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLexMinMaxLevelsBelowTheFirst is a hand-solved optimum, unique per
// slot and not just as a sorted vector: job 0 is pinned to slot 0 (level
// 1 there whatever else happens), so job 1 flattens over slots 1 and 2
// alone, and the levels are 1, 1/2, 1/2.
func TestLexMinMaxLevelsBelowTheFirst(t *testing.T) {
	caps := []int64{4, 4, 4}
	jobs := []flow.Job{
		{Demand: 4, Rel: 0, Dl: 1, Cap: 4},
		{Demand: 4, Rel: 0, Dl: 3, Cap: 4},
	}
	sky, err := flow.LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{1, 1}, [2]int64{1, 2})
	if s := sky.Levels[0].Slots; len(s) != 1 || s[0] != 0 {
		t.Errorf("level 1 freezes slots %v, want [0]", s)
	}
	if got, den := sky.Alloc[1], sky.Den[1]; got[0] != 0 || got[1] != 2*den || got[2] != 2*den {
		t.Errorf("job 1 alloc %v over %d, want [0 2 2]", got, den)
	}
	certify(t, caps, jobs, 0, sky)

	// Capped at one level: slot 0 is exact, the others take whatever the
	// flow that proved level 1 did — at or under it, demand conserved.
	one, err := flow.LexMinMax(caps, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, one, [2]int64{1, 1})
	if sum := one.Load[0] + one.Load[1] + one.Load[2]; one.Load[0] != 4 || sum != 8 {
		t.Errorf("capped: loads %v, want 4 on slot 0 and 8 in all", one.Load)
	}
	certify(t, caps, jobs, 1, one)
}

func TestLexMinMaxForcedLoadOnLowerSlots(t *testing.T) {
	// Job 0 needs both its slots full (cap 3 x 2 = demand 6): slot 0 is
	// shared with the pinned job 1 and sets the top level, and job 0's
	// forced 3 on slot 1 is that slot's whole load one level down.
	caps := []int64{10, 10}
	jobs := []flow.Job{
		{Demand: 6, Rel: 0, Dl: 2, Cap: 3},
		{Demand: 5, Rel: 0, Dl: 1, Cap: 5},
	}
	sky, err := flow.LexMinMax(caps, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{4, 5})
	if sky.Load[0] != 8 || sky.Load[1] != 3 {
		t.Errorf("loads %v, want [8 3]", sky.Load)
	}
	certify(t, caps, jobs, 0, sky)
}

func TestLexMinMaxInfeasibleAndDegenerate(t *testing.T) {
	for name, tc := range map[string]struct {
		caps []int64
		jobs []flow.Job
	}{
		"demand beyond cap x window": {[]int64{5}, []flow.Job{{Demand: 3, Rel: 0, Dl: 1, Cap: 2}}},
		"only a dead slot":           {[]int64{0, 4}, []flow.Job{{Demand: 1, Rel: 0, Dl: 1, Cap: 1}}},
		"zero parallelism":           {[]int64{4}, []flow.Job{{Demand: 1, Rel: 0, Dl: 1, Cap: 0}}},
	} {
		if _, err := flow.LexMinMax(tc.caps, tc.jobs, 0); !errors.Is(err, flow.ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
	sky, err := flow.LexMinMax([]int64{3, 0}, []flow.Job{{Demand: 0, Rel: 0, Dl: 2, Cap: 1}}, 0)
	if err != nil || len(sky.Levels) != 0 || sky.Load[0] != 0 {
		t.Errorf("no demand: %+v, %v; want an empty skyline", sky, err)
	}
	if _, err := flow.LexMinMax([]int64{3}, []flow.Job{{Demand: 1, Rel: 0, Dl: 2, Cap: 1}}, 0); err == nil {
		t.Error("window past the last slot accepted")
	}
	if _, err := flow.LexMinMax([]int64{-1}, nil, 0); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestOverflowIsAnErrorNotAWrap(t *testing.T) {
	big := int64(math.MaxInt64 / 2)
	caps := []int64{big, big - 1, 7}
	jobs := []flow.Job{
		{Demand: big, Rel: 0, Dl: 3, Cap: big},
		{Demand: big / 3, Rel: 1, Dl: 3, Cap: big},
	}
	if _, err := flow.LexMinMax(caps, jobs, 0); !errors.Is(err, flow.ErrOverflow) {
		t.Errorf("LexMinMax err = %v, want ErrOverflow", err)
	}
	// Stage A never scales, so the same sizes are fine there.
	r, err := flow.Shortfall(caps, jobs, []int{0, 1})
	if err != nil || r.Short[0] != 0 || r.Short[1] != 0 {
		t.Fatalf("Shortfall = %+v, %v; want all routed", r, err)
	}
	if err := oracle.CheckRouting(instance(caps, jobs), []int{0, 1}, r); err != nil {
		t.Error(err)
	}
}

func TestShortfallExactUnderParallelismCaps(t *testing.T) {
	// The instance EDF water-filling gets wrong: capacity 2 per slot,
	// X = {window [0,3), cap 1, demand 3}, Y = {window [0,2), cap 2,
	// demand 2}. Y first takes both units of slot 0 greedily; the flow
	// reroutes it to 1+1 so X fits too.
	caps := []int64{2, 2, 2}
	jobs := []flow.Job{
		{Demand: 3, Rel: 0, Dl: 3, Cap: 1},
		{Demand: 2, Rel: 0, Dl: 2, Cap: 2},
	}
	r, err := flow.Shortfall(caps, jobs, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Short[0] != 0 || r.Short[1] != 0 {
		t.Errorf("shortfall %v, want none", r.Short)
	}
}

func TestShortfallLandsOnTheLatestInOrder(t *testing.T) {
	// Two slots of capacity 10, demand 26 against room for 20: whoever
	// comes last in the order is 6 short, and the total never changes.
	// The cut that proves it is both slots.
	caps := []int64{10, 10}
	jobs := []flow.Job{
		{Demand: 13, Rel: 0, Dl: 2, Cap: 13},
		{Demand: 13, Rel: 0, Dl: 2, Cap: 13},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		r, err := flow.Shortfall(caps, jobs, order)
		if err != nil {
			t.Fatal(err)
		}
		first, lastJ := order[0], order[1]
		if r.Short[first] != 0 || r.Short[lastJ] != 6 {
			t.Errorf("order %v: shortfall %v, want 6 on job %d only", order, r.Short, lastJ)
		}
		if r.SlotCut[0] != 1 || r.SlotCut[1] != 1 {
			t.Errorf("order %v: slots join the cut at %v, want [1 1]", order, r.SlotCut)
		}
		if err := oracle.CheckRouting(instance(caps, jobs), order, r); err != nil {
			t.Error(err)
		}
	}
	// A window wider than cap x slots is short on its own.
	r, err := flow.Shortfall([]int64{100, 100}, []flow.Job{{Demand: 26, Rel: 0, Dl: 2, Cap: 10}}, []int{0})
	if err != nil || r.Short[0] != 6 {
		t.Errorf("shortfall = %+v, %v; want 6", r, err)
	}
	if _, err := flow.Shortfall(caps, jobs, []int{0, 0}); err == nil {
		t.Error("repeated order entry accepted")
	}
}

// genInstance draws a planner-shaped instance: windows, parallelism caps
// and the odd dead slot, with demand sized so it fits its own window.
func genInstance(rng *rand.Rand, nJobs, nSlots, maxWin int, slotCap int64) ([]int64, []flow.Job) {
	caps := make([]int64, nSlots)
	for t := range caps {
		if rng.Intn(20) != 0 {
			caps[t] = slotCap
		}
	}
	jobs := make([]flow.Job, nJobs)
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
		jobs[j] = flow.Job{Demand: rng.Int63n(live*par + 1), Rel: int64(rel), Dl: int64(rel + win), Cap: par}
	}
	return caps, jobs
}

// probeInstance is the planner's scale instance at the paper's Fig. 7
// size: jobs with interval windows, even parallelism caps and integral
// demands on slots of capacity 1000, deterministic per size. maxWin
// bounds the window length in slots (deadline windows at real scale are
// short relative to the horizon); 0 leaves windows unbounded.
func probeInstance(jobs, slots, maxWin int) oracle.Instance {
	rng := rand.New(rand.NewSource(int64(jobs*1000 + slots)))
	in := oracle.Instance{Caps: make([]int64, slots), Jobs: make([]oracle.Job, jobs)}
	for t := range in.Caps {
		in.Caps[t] = 1000
	}
	for i := range in.Jobs {
		rel := rng.Intn(slots - 1)
		win := 2 + rng.Intn(slots-rel-1)
		if maxWin > 0 && win > maxWin {
			win = maxWin
		}
		if rel+win > slots {
			win = slots - rel
		}
		par := int64(2 * (1 + rng.Intn(16)))
		in.Jobs[i] = oracle.Job{
			Demand: int64(1+rng.Intn(win)) * par / 2,
			Rel:    int64(rel),
			Dl:     int64(rel + win),
			Cap:    par,
		}
	}
	return in
}

// probeJobs is a probe instance's jobs in the planner's type, and its
// stage A order: EDF, by deadline and then by index, as core passes it.
func probeJobs(in oracle.Instance) ([]flow.Job, []int) {
	jobs := make([]flow.Job, len(in.Jobs))
	order := make([]int, len(in.Jobs))
	for j, job := range in.Jobs {
		jobs[j], order[j] = flow.Job(job), j
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Dl < jobs[order[b]].Dl })
	return jobs, order
}

// shortfallProbes are stage A's scale instances: 10,000 jobs at ten times
// the capacity, 8,599 of them short; 2,000 jobs with 574 short; and the
// Fig. 7 size, where nothing is short.
var shortfallProbes = []struct{ jobs, slots, maxWin int }{
	{10000, 120, 60},
	{2000, 200, 40},
	{5000, 1000, 12},
}

// sameRouting holds Shortfall's answer to the reference's: the routing
// and its cuts. Their work differs by design: the reference lets the jobs
// in one at a time.
func sameRouting(got, want *flow.Routing) error {
	for j := range want.Short {
		if got.Short[j] != want.Short[j] || got.JobCut[j] != want.JobCut[j] {
			return fmt.Errorf("job %d: short %d cut %d, reference %d cut %d",
				j, got.Short[j], got.JobCut[j], want.Short[j], want.JobCut[j])
		}
	}
	for slot := range want.SlotCut {
		if got.SlotCut[slot] != want.SlotCut[slot] {
			return fmt.Errorf("slot %d: cut %d, reference %d", slot, got.SlotCut[slot], want.SlotCut[slot])
		}
	}
	return nil
}

// TestShortfallMatchesReference holds Shortfall, which routes every job in
// one max flow and then reroutes in order, to the reference that lets the
// jobs in one at a time: the same shortfall and cuts, bit for bit. The seeded sweep
// overloads most instances and, like core, appends one-slot reservation
// pseudo-jobs at the end of the order. BenchmarkShortfall holds the probes
// to the same reference.
func TestShortfallMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	overloaded := 0
	for i := 0; i < 3000; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(30), 2+rng.Intn(40), 25, 1+rng.Int63n(64))
		for j := range jobs {
			jobs[j].Demand *= 1 + rng.Int63n(3)
		}
		order := rng.Perm(len(jobs))
		for slot, c := range caps {
			if c > 0 && rng.Intn(3) == 0 {
				r := 1 + rng.Int63n(c)
				order = append(order, len(jobs))
				jobs = append(jobs, flow.Job{Demand: r, Rel: int64(slot), Dl: int64(slot) + 1, Cap: r})
			}
		}
		got, err := flow.Shortfall(caps, jobs, order)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := flow.ShortfallReference(caps, jobs, order)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		if err := sameRouting(got, want); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := oracle.CheckRouting(instance(caps, jobs), order, got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, s := range got.Short {
			if s > 0 {
				overloaded++
				break
			}
		}
	}
	if overloaded < 1000 {
		t.Fatalf("only %d of 3000 cases overloaded", overloaded)
	}
}

// TestShortfallWorkIsBounded is stage A's guard in work, not in wall
// time. On the overloaded probe, where the reference's searches scan every
// job→slot arc 11,783 times over, the searches may scan them at most 200
// times over; re-walking what a short job's search already cut off fails
// it on any machine. On the Fig. 7 probe, where nothing is short, they may
// scan them at most 5 times over: one max flow, not one search per job.
func TestShortfallWorkIsBounded(t *testing.T) {
	for _, c := range []struct {
		probe, bound int
	}{{0, 200}, {2, 5}} {
		p := shortfallProbes[c.probe]
		in := probeInstance(p.jobs, p.slots, p.maxWin)
		jobs, order := probeJobs(in)
		arcs := 0
		for _, job := range jobs {
			for slot := job.Rel; slot < job.Dl; slot++ {
				if in.Caps[slot] > 0 {
					arcs++
				}
			}
		}
		r, err := flow.Shortfall(in.Caps, jobs, order)
		if err != nil {
			t.Fatal(err)
		}
		short := 0
		for _, s := range r.Short {
			if s > 0 {
				short++
			}
		}
		t.Logf("%dx%d: %d jobs short; %d arcs scanned, %.2f per job→slot arc", p.jobs, p.slots, short, r.Work.ArcsScanned, float64(r.Work.ArcsScanned)/float64(arcs))
		if r.Work.ArcsScanned > c.bound*arcs {
			t.Errorf("%dx%d: searches scanned %d arcs, over %d x the %d job→slot arcs", p.jobs, p.slots, r.Work.ArcsScanned, c.bound, arcs)
		}
	}
}

// checkLoad holds Load, the float field the planner's caller reads, to
// the exact allocation it was computed beside.
func checkLoad(t testing.TB, caps []int64, jobs []flow.Job, sky *flow.Skyline) {
	t.Helper()
	load := make([]float64, len(caps))
	terms := make([]int, len(caps))
	for j, job := range jobs {
		for i, x := range sky.Alloc[j] {
			load[job.Rel+int64(i)] += float64(x) / float64(sky.Den[j])
			terms[job.Rel+int64(i)]++
		}
	}
	for slot := range caps {
		// Relative: the fuzz target feeds magnitudes where a float64 sum
		// is only good to a few units.
		if tol := 1e-9 * float64(terms[slot]+1) * math.Max(1, math.Abs(load[slot])); math.Abs(sky.Load[slot]-load[slot]) > tol {
			t.Fatalf("slot %d: reported load %g, allocations sum to %g", slot, sky.Load[slot], load[slot])
		}
	}
}

func TestSkylineInvariantsAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(30), 2+rng.Intn(40), 25, 1+rng.Int63n(64))
		for _, maxLevels := range []int{0, 1, 4} {
			sky, err := flow.LexMinMax(caps, jobs, maxLevels)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			certify(t, caps, jobs, maxLevels, sky)
			checkLoad(t, caps, jobs, sky)
			again, err := flow.LexMinMax(caps, jobs, maxLevels)
			if err != nil {
				t.Fatal(err)
			}
			for slot := range caps {
				if sky.Load[slot] != again.Load[slot] {
					t.Fatalf("case %d: slot %d differs between two runs on one input", i, slot)
				}
			}
			if len(sky.Levels) != len(again.Levels) {
				t.Fatalf("case %d: %d levels, then %d", i, len(sky.Levels), len(again.Levels))
			}
		}
	}
}

// TestTruncatedSkylineKeepsItsSolvedLevels pins what a skyline capped at
// maxLevels keeps canonical: its levels (θ, slots and jobs) and the loads
// of the slots frozen at them are the exact skyline's, whatever the job
// order, and every other slot is at or under the last level. Those
// slots' loads are whatever flow proved that level, so they may change
// with the job order: on these instances, reversing the jobs moves them
// in about a third of the skylines capped at one level and one in
// twenty-five of those capped at four, and never in an exact skyline.
func TestTruncatedSkylineKeepsItsSolvedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for i := 0; i < 1500; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(30), 2+rng.Intn(40), 25, 1+rng.Int63n(64))
		exact, err := flow.LexMinMax(caps, jobs, 0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		reversed := slices.Clone(jobs)
		slices.Reverse(reversed)
		for _, maxLevels := range []int{1, 2, 4} {
			for _, rev := range []bool{false, true} {
				in, name := jobs, fmt.Sprintf("case %d, %d levels", i, maxLevels)
				if rev {
					in, name = reversed, name+", jobs reversed"
				}
				sky, err := flow.LexMinMax(caps, in, maxLevels)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := min(maxLevels, len(exact.Levels)); len(sky.Levels) != want {
					t.Fatalf("%s: %d levels, want %d", name, len(sky.Levels), want)
				}
				frozen := make([]bool, len(caps))
				for k, lv := range sky.Levels {
					ex := exact.Levels[k]
					lvJobs := slices.Clone(lv.Jobs)
					if rev {
						for x, j := range lvJobs {
							lvJobs[x] = len(jobs) - 1 - j
						}
						slices.Sort(lvJobs)
					}
					if lv.Num*ex.Den != ex.Num*lv.Den || !slices.Equal(lv.Slots, ex.Slots) || !slices.Equal(lvJobs, ex.Jobs) {
						t.Fatalf("%s: level %d is %d/%d on slots %v, jobs %v; the exact skyline's is %d/%d on %v, %v",
							name, k, lv.Num, lv.Den, lv.Slots, lvJobs, ex.Num, ex.Den, ex.Slots, ex.Jobs)
					}
					for _, slot := range lv.Slots {
						frozen[slot] = true
						if !near(sky.Load[slot], exact.Load[slot]) {
							t.Fatalf("%s: frozen slot %d carries %g, the exact skyline %g", name, slot, sky.Load[slot], exact.Load[slot])
						}
					}
				}
				if len(sky.Levels) == 0 {
					continue
				}
				last := sky.Levels[len(sky.Levels)-1]
				for slot, load := range sky.Load {
					if bound := float64(last.Num) * float64(caps[slot]) / float64(last.Den); !frozen[slot] && load > bound && !near(load, bound) {
						t.Fatalf("%s: slot %d carries %g, over the last level's %g", name, slot, load, bound)
					}
				}
			}
		}
	}
}

// TestCertificateAtProbeScale holds the planner's certificates, uncapped
// and capped, and its stage A routing to the exact checker well past the
// sizes the seeded sweeps reach (12 jobs x 40 slots): on the scale
// instance at 100 jobs x 100 slots.
func TestCertificateAtProbeScale(t *testing.T) {
	if err := oracle.CheckFlow(probeInstance(100, 100, 0)); err != nil {
		t.Fatal(err)
	}
}

// sameSkyline runs stage B on r, stage A's routing of jobs over caps, and
// holds it to the free LexMinMax on the demand r routed, fits, which it
// returns with stage B's answer: the same skyline and error bit for bit,
// and the same work but for the arcs scanned when a job is wholly short,
// whose empty arcs only the shared network holds.
func sameSkyline(t testing.TB, caps []int64, jobs []flow.Job, r *flow.Routing, maxLevels int) ([]flow.Job, *flow.Skyline, error) {
	t.Helper()
	fits := slices.Clone(jobs)
	wholly := false
	for j, s := range r.Short {
		fits[j].Demand -= s
		wholly = wholly || s > 0 && fits[j].Demand == 0
	}
	got, err := r.LexMinMax(maxLevels)
	want, wantErr := flow.LexMinMax(caps, fits, maxLevels)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("stage B on the routing: error %v, the free LexMinMax %v", err, wantErr)
	}
	if err != nil {
		return fits, nil, err
	}
	gw, ww := got.Work, want.Work
	if wholly {
		gw.ArcsScanned, ww.ArcsScanned = 0, 0
	}
	if !reflect.DeepEqual(got.Load, want.Load) || !reflect.DeepEqual(got.Alloc, want.Alloc) ||
		!reflect.DeepEqual(got.Den, want.Den) || !reflect.DeepEqual(got.Levels, want.Levels) || gw != ww {
		t.Fatalf("stage B on the routing differs from the free LexMinMax:\n%+v\n%+v", got, want)
	}
	return fits, got, nil
}

// TestStageBOnTheRoutingIsTheFreeLexMinMax holds stage B on stage A's
// network to the free LexMinMax on the demand stage A routed (sameSkyline),
// each routing answering three level caps in turn, on instances that force
// what only the shared network holds: jobs left wholly short, by overload
// or by a zero parallelism cap, and slots that only such jobs reach. A slot
// counted active because stage A laid out its sink arc would lower every
// level its capacity joins.
func TestStageBOnTheRoutingIsTheFreeLexMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	wholly, lone := 0, 0
	for i := 0; i < 2000; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(20), 2+rng.Intn(30), 20, 1+rng.Int63n(32))
		for j := range jobs {
			jobs[j].Demand *= 1 + rng.Int63n(3)
		}
		// A job that can take nothing anywhere, whose window ends on slots
		// no other job reaches.
		n := len(caps)
		for range 1 + rng.Intn(3) {
			caps = append(caps, 1+rng.Int63n(32))
		}
		jobs = append(jobs, flow.Job{Demand: 1 + rng.Int63n(20), Rel: int64(rng.Intn(len(caps))), Dl: int64(len(caps))})
		lone += len(caps) - n
		r, err := flow.Shortfall(caps, jobs, rng.Perm(len(jobs)))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for j, s := range r.Short[:len(jobs)-1] {
			if s > 0 && s == jobs[j].Demand {
				wholly++
			}
		}
		for _, maxLevels := range []int{0, 1, 3} {
			fits, sky, err := sameSkyline(t, caps, jobs, r, maxLevels)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			certify(t, caps, fits, maxLevels, sky)
		}
	}
	if wholly < 500 {
		t.Fatalf("only %d jobs with a cap were wholly short", wholly)
	}
	t.Logf("%d jobs with a cap wholly short, %d slots only a job without one reaches", wholly, lone)
}

// FuzzFlowSkyline throws adversarial capacities, demands and windows at
// both stages: no panic, every error a declared one or a validation
// message, stage B on the routing the free LexMinMax on the demand it
// routed (sameSkyline), and every answer returned passes the exact
// checker, its skyline's loads the interior check.
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
		jobs := make([]flow.Job, int(nJobs)%24)
		order := rng.Perm(len(jobs))
		for j := range jobs {
			rel := rng.Intn(m)
			jobs[j] = flow.Job{
				Demand: rng.Int63n(demandMax/int64(len(jobs)) + 1),
				Rel:    int64(rel),
				Dl:     int64(rel + 1 + rng.Intn(m-rel)),
				Cap:    rng.Int63n(demandMax/2 + 2),
			}
		}

		r, err := flow.Shortfall(caps, jobs, order)
		if err != nil {
			t.Fatalf("Shortfall: %v", err) // stage A scales nothing: it cannot overflow
		}
		if err := oracle.CheckRouting(instance(caps, jobs), order, r); err != nil {
			t.Fatal(err)
		}
		// What stage A routed fits under the hard caps, so stage B must
		// route it with every level at or under 1.
		fits, sky, err := sameSkyline(t, caps, jobs, r, int(maxLevels)%6)
		if errors.Is(err, flow.ErrOverflow) {
			return
		}
		if err != nil {
			t.Fatalf("LexMinMax after Shortfall: %v", err)
		}
		certify(t, caps, fits, int(maxLevels)%6, sky)
		checkLoad(t, caps, fits, sky)
		if lv := sky.Levels; len(lv) > 0 && lv[0].Num > lv[0].Den {
			t.Fatalf("top level %d/%d above 1 on demand that fits the hard caps", lv[0].Num, lv[0].Den)
		}
	})
}

// BenchmarkLexMinMax times one replan's skyline. The 5000x1000 case is
// the scale the product rests on (the paper's Fig. 7): a replan capped at
// six levels must take under a second, and its certificate, checked once
// outside the timer, must hold.
func BenchmarkLexMinMax(b *testing.B) {
	b.Run("120x120", func(b *testing.B) {
		caps, jobs := genInstance(rand.New(rand.NewSource(5)), 120, 120, 60, 512)
		for i := 0; i < b.N; i++ {
			if _, err := flow.LexMinMax(caps, jobs, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("5000x1000", func(b *testing.B) {
		in := probeInstance(5000, 1000, 12)
		jobs, _ := probeJobs(in)
		sky, err := flow.LexMinMax(in.Caps, jobs, 6)
		if err != nil {
			b.Fatal(err)
		}
		certify(b, in.Caps, jobs, 6, sky)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := flow.LexMinMax(in.Caps, jobs, 6); err != nil {
				b.Fatal(err)
			}
		}
		if per := b.Elapsed() / time.Duration(b.N); per >= time.Second {
			b.Fatalf("a 5000x1000 replan took %v, budget 1s", per)
		}
	})
}

// BenchmarkShortfall times stage A on its three probes. Each probe's
// routing is first held, outside the timer, to the reference's.
func BenchmarkShortfall(b *testing.B) {
	for _, p := range shortfallProbes {
		b.Run(fmt.Sprintf("%dx%d", p.jobs, p.slots), func(b *testing.B) {
			in := probeInstance(p.jobs, p.slots, p.maxWin)
			jobs, order := probeJobs(in)
			got, err := flow.Shortfall(in.Caps, jobs, order)
			if err != nil {
				b.Fatal(err)
			}
			want, err := flow.ShortfallReference(in.Caps, jobs, order)
			if err != nil {
				b.Fatal(err)
			}
			if err := sameRouting(got, want); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := flow.Shortfall(in.Caps, jobs, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
