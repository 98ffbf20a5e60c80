package flow_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/oracle"
)

// certify holds a skyline to the exact checker.
func certify(t testing.TB, caps []int64, jobs []flow.Job, sky *flow.Skyline) {
	t.Helper()
	if err := oracle.CheckSolution(instance(caps, jobs), sky); err != nil {
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
	sky, err := flow.LexMinMax(caps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{3, 4})
	for tt, load := range sky.Load {
		if load != 1.5 {
			t.Errorf("slot %d: load %g, want 1.5", tt, load)
		}
	}
	certify(t, caps, jobs, sky)
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
	sky, err := flow.LexMinMax(caps, jobs)
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
	certify(t, caps, jobs, sky)
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
	sky, err := flow.LexMinMax(caps, jobs)
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
	certify(t, caps, jobs, sky)
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
	sky, err := flow.LexMinMax(caps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels(t, sky, [2]int64{4, 5})
	if sky.Load[0] != 8 || sky.Load[1] != 3 {
		t.Errorf("loads %v, want [8 3]", sky.Load)
	}
	certify(t, caps, jobs, sky)
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
		if _, err := flow.LexMinMax(tc.caps, tc.jobs); !errors.Is(err, flow.ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
	sky, err := flow.LexMinMax([]int64{3, 0}, []flow.Job{{Demand: 0, Rel: 0, Dl: 2, Cap: 1}})
	if err != nil || len(sky.Levels) != 0 || sky.Load[0] != 0 {
		t.Errorf("no demand: %+v, %v; want an empty skyline", sky, err)
	}
	if _, err := flow.LexMinMax([]int64{3}, []flow.Job{{Demand: 1, Rel: 0, Dl: 2, Cap: 1}}); err == nil {
		t.Error("window past the last slot accepted")
	}
	if _, err := flow.LexMinMax([]int64{-1}, nil); err == nil {
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
	if _, err := flow.LexMinMax(caps, jobs); !errors.Is(err, flow.ErrOverflow) {
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

// TestShortfallDeadlines holds Network.Shortfall to its deadline contract
// at the edges: a deadline outside its job's window, or a dl that does not
// hold one deadline per job, is refused with an error naming the job; a
// deadline at the release opens no arc, so the job is wholly short and no
// slot joins the cut for it; and a deadline on a zero-capacity slot, which
// no arc leads to, routes exactly as the next positive-capacity slot does.
func TestShortfallDeadlines(t *testing.T) {
	caps := []int64{4, 0, 4, 4}
	jobs := []flow.Job{
		{Demand: 8, Rel: 0, Dl: 4, Cap: 4},
		{Demand: 4, Rel: 2, Dl: 4, Cap: 4},
	}
	order := []int{0, 1}
	net, err := flow.NewNetwork(caps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		dl, same []int64 // same routes exactly as dl does when set
		err      string  // what the error names; none when empty
		short    []int64
		jobCut   []int
	}{
		{name: "below the release", dl: []int64{4, 1}, err: "job 1 "},
		{name: "past the window", dl: []int64{5, 4}, err: "job 0 "},
		{name: "one deadline short", dl: []int64{4}, err: "job 1:"},
		{name: "one deadline over", dl: []int64{4, 4, 4}, err: "job 2:"},
		{name: "at the release", dl: []int64{4, 2}, short: []int64{0, 4}, jobCut: []int{-1, 1}},
		{name: "on a zero-capacity slot", dl: []int64{1, 4}, same: []int64{2, 4}, short: []int64{4, 0}, jobCut: []int{0, -1}},
		{name: "every arc", dl: []int64{4, 4}, short: []int64{0, 0}, jobCut: []int{-1, -1}},
	} {
		r, err := net.Shortfall(order, tc.dl)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(r.Short, tc.short) || !slices.Equal(r.JobCut, tc.jobCut) || slices.ContainsFunc(r.SlotCut, func(c int) bool { return c >= 0 }) {
			t.Errorf("%s: short %v, job cut %v, slot cut %v; want %v, %v and no slot", tc.name, r.Short, r.JobCut, r.SlotCut, tc.short, tc.jobCut)
		}
		if tc.same == nil {
			continue
		}
		same, err := net.Shortfall(order, tc.same)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sameRouting(same, r); err != nil || same.Work != r.Work {
			t.Errorf("%s: deadlines %v route unlike %v (work %+v against %+v): %v", tc.name, tc.same, tc.dl, same.Work, r.Work, err)
		}
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
		sky, err := flow.LexMinMax(caps, jobs)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		certify(t, caps, jobs, sky)
		checkLoad(t, caps, jobs, sky)
		again, err := flow.LexMinMax(caps, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sky, again) {
			t.Fatalf("case %d: two runs on one input differ", i)
		}
	}
}

// sameAsReference holds stage B's answer on caps and jobs, sky or err, to
// the reference's, which peels the levels by Newton's method: the same
// verdict, the same loads bit for bit, and the same levels, each with its
// θ, slots and jobs. The rows and their denominators may differ: a flow is
// not unique.
func sameAsReference(t testing.TB, caps []int64, jobs []flow.Job, sky *flow.Skyline, err error) {
	t.Helper()
	want, wantErr := flow.LexMinMaxReference(caps, jobs)
	for _, verdict := range []error{flow.ErrInfeasible, flow.ErrOverflow, nil} {
		if verdict == nil && (err == nil) != (wantErr == nil) || verdict != nil && errors.Is(err, verdict) != errors.Is(wantErr, verdict) {
			t.Fatalf("verdict %v, the reference's %v", err, wantErr)
		}
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(sky.Load, want.Load) {
		t.Fatalf("loads %v, the reference's %v", sky.Load, want.Load)
	}
	if !reflect.DeepEqual(sky.Levels, want.Levels) {
		t.Fatalf("levels %+v, the reference's %+v", sky.Levels, want.Levels)
	}
}

// TestLexMinMaxMatchesReference holds stage B, which solves each part of
// the decomposition once at its mean level, to the reference that peels
// the levels from the top by Newton's method (sameAsReference), and
// certifies every answer, on a seeded sweep of small instances: overloaded
// ones with no level, jobs with a zero parallelism cap, jobs that must put
// their whole cap on every slot of their window, and slots only such jobs
// reach.
func TestLexMinMaxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	infeasible, levels, jobless := 0, 0, 0
	for i := 0; i < 20000; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(12), 2+rng.Intn(24), 12, 1+rng.Int63n(32))
		for j := range jobs {
			switch rng.Intn(64) {
			case 0:
				jobs[j].Demand *= 2
			case 1:
				jobs[j].Cap = 0
			case 2, 3, 4, 5, 6, 7, 8, 9: // its whole cap on every live slot of its window
				jobs[j].Demand = 0
				for slot := jobs[j].Rel; slot < jobs[j].Dl; slot++ {
					if caps[slot] > 0 {
						jobs[j].Demand += jobs[j].Cap
					}
				}
			}
		}
		sky, err := flow.LexMinMax(caps, jobs)
		sameAsReference(t, caps, jobs, sky, err)
		if errors.Is(err, flow.ErrInfeasible) {
			infeasible++
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		certify(t, caps, jobs, sky)
		levels += len(sky.Levels)
		for _, lv := range sky.Levels {
			if len(lv.Jobs) == 0 {
				jobless++
			}
		}
	}
	if infeasible < 1000 || infeasible > 4000 || jobless < 1000 {
		t.Fatalf("the sweep missed a shape: %d of 20000 cases infeasible, %d levels without a job", infeasible, jobless)
	}
	t.Logf("%d of 20000 cases infeasible; %d levels in the rest, %d without a job", infeasible, levels, jobless)
}

// TestCertificateAtProbeScale holds the planner's certificate and its
// stage A routing to the exact checker well past the sizes the seeded
// sweeps reach (12 jobs x 40 slots): on the scale instance at 100 jobs x
// 100 slots.
func TestCertificateAtProbeScale(t *testing.T) {
	if err := oracle.CheckFlow(probeInstance(100, 100, 0)); err != nil {
		t.Fatal(err)
	}
}

// sameSkyline runs stage B on r, stage A's routing of jobs over caps, and
// holds it to the free LexMinMax on the demand r routed, fits, which it
// holds to the reference (sameAsReference) and returns with stage B's
// answer: the same skyline and error bit for bit,
// and the same work but for the arcs scanned when a job is wholly short
// or, with cut set, an arc is closed: those arcs only the shared network
// holds, empty. With cut set, r may be a routing on a network whose
// windows and slots reach past those of jobs and caps, open only to the
// arcs inside them, and with jobs past those of jobs that open none:
// stage B's loads past caps, its rows past the windows of jobs and the
// rows of the jobs past them must be zero, and the rest is held to the
// free answer.
func sameSkyline(t testing.TB, caps []int64, jobs []flow.Job, r *flow.Routing, cut bool) ([]flow.Job, *flow.Skyline, error) {
	t.Helper()
	fits := slices.Clone(jobs)
	wholly := false
	for j := range fits {
		fits[j].Demand -= r.Short[j]
		wholly = wholly || r.Short[j] > 0 && fits[j].Demand == 0
	}
	got, err := r.LexMinMax()
	want, wantErr := flow.LexMinMax(caps, fits)
	sameAsReference(t, caps, fits, want, wantErr)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("stage B on the routing: error %v, the free LexMinMax %v", err, wantErr)
	}
	if err != nil {
		return fits, nil, err
	}
	if cut {
		got = cutSkyline(t, got, caps, jobs)
	}
	gw, ww := got.Work, want.Work
	if wholly || cut {
		gw.ArcsScanned, ww.ArcsScanned = 0, 0
	}
	if !reflect.DeepEqual(got.Load, want.Load) || !reflect.DeepEqual(got.Alloc, want.Alloc) ||
		!reflect.DeepEqual(got.Den, want.Den) || !reflect.DeepEqual(got.Levels, want.Levels) || gw != ww {
		t.Fatalf("stage B on the routing differs from the free LexMinMax:\n%+v\n%+v", got, want)
	}
	return fits, got, nil
}

// cutSkyline is sky cut to caps and jobs, a prefix of the slots and jobs
// it was found on, each window of jobs a prefix of the window there. It
// fails unless what it cuts off is zero.
func cutSkyline(t testing.TB, sky *flow.Skyline, caps []int64, jobs []flow.Job) *flow.Skyline {
	t.Helper()
	out := *sky
	out.Load, out.Den, out.Alloc = sky.Load[:len(caps)], sky.Den[:len(jobs)], make([][]int64, len(jobs))
	for slot, l := range sky.Load[len(caps):] {
		if l != 0 {
			t.Fatalf("slot %d past the cut carries %g", len(caps)+slot, l)
		}
	}
	for j, row := range sky.Alloc {
		if j >= len(jobs) {
			if row != nil || sky.Den[j] != 0 {
				t.Fatalf("job %d past the cut has a row %v over %d", j, row, sky.Den[j])
			}
			continue
		}
		if row == nil {
			continue
		}
		win := jobs[j].Dl - jobs[j].Rel
		if slices.ContainsFunc(row[win:], func(x int64) bool { return x != 0 }) {
			t.Fatalf("job %d places %v past its cut window of %d slots", j, row, win)
		}
		out.Alloc[j] = row[:win]
	}
	return &out
}

// sameCutRouting lays jobs over caps out as one network and routes it in
// order with each job j < len(cut) given the deadline cut[j], and every
// later job its release, so it opens no arc. It holds that routing to the
// free Shortfall on the cut instance — the first m slots and the first
// len(cut) jobs, each window ending at cut[j], which must be the first
// len(cut) entries of order — bit for bit but for the arcs scanned: the
// later jobs route nothing, and no slot from m on is on a cut. It returns
// the network, the routing and the cut instance.
func sameCutRouting(t testing.TB, caps []int64, jobs []flow.Job, order []int, cut []int64, m int) (*flow.Network, *flow.Routing, []int64, []flow.Job) {
	t.Helper()
	cutCaps, cutJobs := caps[:m], slices.Clone(jobs[:len(cut)])
	dl := make([]int64, len(jobs))
	for j, job := range jobs {
		dl[j] = job.Rel
		if j < len(cut) {
			dl[j], cutJobs[j].Dl = cut[j], cut[j]
		}
	}
	net, err := flow.NewNetwork(caps, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Shortfall(order, dl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.Shortfall(cutCaps, cutJobs, order[:len(cut)])
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRouting(got, want); err != nil {
		t.Fatalf("the cut routing differs from the free Shortfall on the cut instance: %v", err)
	}
	if gw, ww := got.Work, want.Work; gw.MaxFlows != ww.MaxFlows || gw.Resumed != ww.Resumed || gw.Augmentations != ww.Augmentations {
		t.Fatalf("the cut routing's work %+v, the free Shortfall's %+v", gw, ww)
	}
	for j := len(cut); j < len(jobs); j++ {
		if got.Short[j] != jobs[j].Demand {
			t.Fatalf("job %d past the cut routed %d of %d", j, jobs[j].Demand-got.Short[j], jobs[j].Demand)
		}
	}
	for slot := m; slot < len(caps); slot++ {
		if got.SlotCut[slot] >= 0 {
			t.Fatalf("slot %d past the cut is on the cut from position %d", slot, got.SlotCut[slot])
		}
	}
	return net, got, cutCaps, cutJobs
}

// TestStageBOnTheRoutingIsTheFreeLexMinMax holds stage B on stage A's
// network to the free LexMinMax on the demand stage A routed, and that to
// the reference (sameSkyline), on instances that force
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
		fits, sky, err := sameSkyline(t, caps, jobs, r, false)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		certify(t, caps, fits, sky)
	}
	if wholly < 500 {
		t.Fatalf("only %d jobs with a cap were wholly short", wholly)
	}
	t.Logf("%d jobs with a cap wholly short, %d slots only a job without one reaches", wholly, lone)
}

// edfOrder lists jobs' indices for stage A as core does: the first n by
// dl, earliest first, index as tie-break, then the rest in index order.
func edfOrder(n int, total int, dl func(j int) int64) []int {
	order := make([]int, total)
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order[:n], func(a, b int) int { return int(dl(a) - dl(b)) })
	return order
}

// TestSlackRoutingIsTheFreeShortfall holds stage A on one network with
// each job given a deadline inside its window — the deadline slack's window
// set on the network of the true one — to the free Shortfall on the slack
// instance (sameCutRouting), and stage B on that routing to the free
// LexMinMax there (sameSkyline); and the same network, routed again in the
// true windows' order with every arc open, to the free Shortfall on the
// true instance, work and all. As in core, a slack deadline is the true one
// less the slack, floored at one slot past the release; the slack's
// horizon is the latest slack deadline; and one-slot reservation
// pseudo-jobs follow the deadline jobs in slot order, those past the
// slack's horizon given their release as their deadline, so they open no
// arc. The instances hold deadlines the floor
// raised, such trailing reservations, and slots only closed arcs reach.
func TestSlackRoutingIsTheFreeShortfall(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	floored, trailing, closedOnly := 0, 0, 0
	for i := 0; i < 2000; i++ {
		caps, jobs := genInstance(rng, 1+rng.Intn(20), 2+rng.Intn(30), 20, 1+rng.Int63n(32))
		for j := range jobs {
			jobs[j].Demand *= 1 + rng.Int63n(3)
		}
		n, slack, m := len(jobs), rng.Int63n(8), int64(1)
		cut := make([]int64, n)
		for j, job := range jobs {
			cut[j] = max(job.Dl-slack, job.Rel+1)
			if job.Dl-slack < job.Rel+1 {
				floored++
			}
			m = max(m, cut[j])
		}
		for slot, c := range caps {
			if c > 0 && rng.Intn(3) == 0 {
				r := 1 + rng.Int63n(c)
				jobs = append(jobs, flow.Job{Demand: r, Rel: int64(slot), Dl: int64(slot) + 1, Cap: r})
				if int64(slot) < m {
					cut = append(cut, int64(slot)+1)
				} else {
					trailing++
				}
			}
		}
		reached := make([]int, len(caps)) // 1 by a closed arc only, 2 by an open one
		for j, job := range jobs {
			for slot := job.Rel; slot < job.Dl; slot++ {
				switch {
				case caps[slot] == 0:
				case j < len(cut) && slot < cut[j]:
					reached[slot] = 2
				default:
					reached[slot] = max(reached[slot], 1)
				}
			}
		}
		for _, r := range reached {
			if r == 1 {
				closedOnly++
			}
		}

		slackOrder := edfOrder(n, len(jobs), func(j int) int64 { return cut[j] })
		net, rs, sCaps, sJobs := sameCutRouting(t, caps, jobs, slackOrder, cut, int(m))
		trueOrder := edfOrder(n, len(jobs), func(j int) int64 { return jobs[j].Dl })
		rt, err := net.Shortfall(trueOrder, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := flow.Shortfall(caps, jobs, trueOrder)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := sameRouting(rt, want); err != nil || rt.Work != want.Work {
			t.Fatalf("case %d: the reopened routing differs from the free Shortfall (work %+v against %+v): %v", i, rt.Work, want.Work, err)
		}
		// Stage B on the slack routing, found before the network routed
		// again, then on the reopened one.
		fits, sky, err := sameSkyline(t, sCaps, sJobs, rs, true)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		certify(t, sCaps, fits, sky)
		if _, _, err := sameSkyline(t, caps, jobs, rt, false); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	if floored < 500 || trailing < 500 || closedOnly < 500 {
		t.Fatalf("the instances missed a shape: %d floored slack deadlines, %d trailing reservations, %d slots only closed arcs reach",
			floored, trailing, closedOnly)
	}
	t.Logf("%d floored slack deadlines, %d trailing reservations, %d slots only closed arcs reach", floored, trailing, closedOnly)
}

// FuzzFlowSkyline throws adversarial capacities, demands and windows at
// both stages: no panic, every error a declared one or a validation
// message, stage B on the routing the free LexMinMax on the demand it
// routed (sameSkyline), and every answer returned passes the exact
// checker, its skyline's loads the interior check. It draws a deadline
// inside each job's window too, and holds the routing on the same network
// given those deadlines, and stage B on it, to the free answers on the
// windows cut there (sameCutRouting); and the same deadlines with one of
// them moved outside its window must be refused, naming the job.
func FuzzFlowSkyline(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), int64(4), int64(6))
	f.Add(int64(7), uint8(12), uint8(30), int64(512), int64(4000))
	f.Add(int64(9), uint8(2), uint8(2), int64(0), int64(1))
	f.Add(int64(3), uint8(5), uint8(9), int64(math.MaxInt64/2), int64(math.MaxInt64/3))
	f.Fuzz(func(t *testing.T, seed int64, nJobs, nSlots uint8, capMax, demandMax int64) {
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
		fits, sky, err := sameSkyline(t, caps, jobs, r, false)
		if errors.Is(err, flow.ErrOverflow) {
			return
		}
		if err != nil {
			t.Fatalf("LexMinMax after Shortfall: %v", err)
		}
		certify(t, caps, fits, sky)
		checkLoad(t, caps, fits, sky)
		if lv := sky.Levels; len(lv) > 0 && lv[0].Num > lv[0].Den {
			t.Fatalf("top level %d/%d above 1 on demand that fits the hard caps", lv[0].Num, lv[0].Den)
		}

		// The same jobs on the same network, each given a drawn deadline in
		// its window: the free answers on the windows cut there.
		cut := make([]int64, len(jobs))
		for j, job := range jobs {
			cut[j] = job.Rel + 1 + rng.Int63n(job.Dl-job.Rel)
		}
		net, rc, cc, cj := sameCutRouting(t, caps, jobs, order, cut, m)
		if len(jobs) > 0 {
			j, dl := rng.Intn(len(jobs)), slices.Clone(cut)
			if dl[j] = jobs[j].Rel - 1 - rng.Int63n(4); rng.Intn(2) == 0 {
				dl[j] = jobs[j].Dl + 1 + rng.Int63n(4)
			}
			if _, err := net.Shortfall(order, dl); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("job %d ", j)) {
				t.Fatalf("deadline %d outside job %d's window [%d, %d]: err = %v, want one naming the job", dl[j], j, jobs[j].Rel, jobs[j].Dl, err)
			}
		}
		fits, sky, err = sameSkyline(t, cc, cj, rc, true)
		if errors.Is(err, flow.ErrOverflow) {
			return
		}
		if err != nil {
			t.Fatalf("LexMinMax after the cut Shortfall: %v", err)
		}
		certify(t, cc, fits, sky)
	})
}

// BenchmarkLexMinMax times one replan's skyline. The 5000x1000 case is
// the scale the product rests on (the paper's Fig. 7): the exact skyline
// must take under a second, and, checked once outside the timer, its
// certificate must hold and it must be the reference's. It reports the
// arcs that skyline scanned and its max flows started from zero and
// resumed.
func BenchmarkLexMinMax(b *testing.B) {
	b.Run("120x120", func(b *testing.B) {
		caps, jobs := genInstance(rand.New(rand.NewSource(5)), 120, 120, 60, 512)
		for i := 0; i < b.N; i++ {
			if _, err := flow.LexMinMax(caps, jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("5000x1000", func(b *testing.B) {
		in := probeInstance(5000, 1000, 12)
		jobs, _ := probeJobs(in)
		sky, err := flow.LexMinMax(in.Caps, jobs)
		if err != nil {
			b.Fatal(err)
		}
		certify(b, in.Caps, jobs, sky)
		sameAsReference(b, in.Caps, jobs, sky, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := flow.LexMinMax(in.Caps, jobs); err != nil {
				b.Fatal(err)
			}
		}
		if per := b.Elapsed() / time.Duration(b.N); per >= time.Second {
			b.Fatalf("a 5000x1000 replan took %v, budget 1s", per)
		}
		b.ReportMetric(float64(sky.Work.ArcsScanned), "arcs")
		b.ReportMetric(float64(sky.Work.MaxFlows), "max_flows")
		b.ReportMetric(float64(sky.Work.Resumed), "resumed")
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
