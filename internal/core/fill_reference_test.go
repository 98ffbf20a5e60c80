package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"flowtime/internal/flow"
	"flowtime/internal/plan"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// refFillSlot is the map-based fill the per-kind fill replaced, kept as
// its reference: it grants up to budget units of kind at slot offset t of
// next to the jobs of order — every job of the replan, earliest deadline
// first — whose windows cover the slot, looking each one's row up in next
// and its demand left up in remaining. order is sorted by deadline, so
// the windows closed by the slot are a prefix of it, which the sweep
// starts past.
func refFillSlot(order []*planJob, remaining map[*planJob]int64, next *plan.Plan, kind resource.Kind, t, budget int64) int64 {
	if budget <= 0 {
		return 0
	}
	granted := int64(0)
	abs := next.From + t
	open := sort.Search(len(order), func(i int) bool { return order[i].dlSlot > abs })
	for _, pj := range order[open:] {
		rem := remaining[pj]
		if rem <= 0 || abs < pj.relSlot || abs >= pj.dlSlot {
			continue
		}
		slots, i := next.Jobs[pj.state.ID].Alloc, abs-pj.relSlot
		have := slots[i].Get(kind)
		g := pj.state.ParallelCap.Get(kind) - have
		if g > rem {
			g = rem
		}
		if g > budget-granted {
			g = budget - granted
		}
		if g <= 0 {
			continue
		}
		slots[i] = slots[i].With(kind, have+g)
		remaining[pj] = rem - g
		granted += g
		if granted >= budget {
			break
		}
	}
	return granted
}

// refDemand is kind's demand table as the reference rebuilt it: every job
// of the replan that demands the kind, with all of that demand.
func refDemand(jobs []*planJob, kind resource.Kind) map[*planJob]int64 {
	demand := make(map[*planJob]int64, len(jobs))
	for _, pj := range jobs {
		if d := pj.state.EstRemaining.Get(kind); d > 0 {
			demand[pj] = d
		}
	}
	return demand
}

// refGreedyPlanKind is the reference's greedy rung: EDF water-fill of
// remaining under the hard caps.
func refGreedyPlanKind(kind resource.Kind, order []*planJob, remaining map[*planJob]int64, next *plan.Plan, caps []resource.Vector) {
	for t := int64(0); t < next.NSlots; t++ {
		refFillSlot(order, remaining, next, kind, t, caps[t].Get(kind))
	}
}

// refRepair is the reference's integral repair: budgets by cumulative
// rounding of load under what kept holds, the fill within them, then the
// sweep up to caps.
func refRepair(kind resource.Kind, order []*planJob, remaining map[*planJob]int64, next *plan.Plan, caps []int64, load []float64, kept []int64) {
	placed := make([]int64, next.NSlots)
	cum := 0.0
	budgetUsed := int64(0)
	for t := int64(0); t < next.NSlots; t++ {
		cum += load[t] - float64(kept[t])
		budget := int64(cum+0.5) - budgetUsed
		if c := caps[t] - kept[t]; budget > c {
			budget = c
		}
		placed[t] = refFillSlot(order, remaining, next, kind, t, budget)
		budgetUsed += placed[t]
	}
	for t := int64(0); t < next.NSlots; t++ {
		refFillSlot(order, remaining, next, kind, t, caps[t]-placed[t])
	}
}

// edfOrder is every job of jobs, earliest deadline first, ID as
// tie-break: the replan-wide order the reference walks.
func edfOrder(jobs []*planJob) []*planJob {
	order := slices.Clone(jobs)
	slices.SortStableFunc(order, func(a, b *planJob) int {
		return cmp.Or(cmp.Compare(a.dlSlot, b.dlSlot), strings.Compare(a.state.ID, b.state.ID))
	})
	return order
}

// fillProblem is one seeded replan as replan sees it after stage A: its
// deadline jobs with their cut windows, EDF order, plan length and
// per-kind problems, and what ties the instance to each shape the
// differential must cover.
type fillProblem struct {
	jobs, order  []*planJob
	from, nSlots int64
	planCap      []resource.Vector
	probs        []*kindProblem
	cut          bool // some window was cut at the plan's end
	capBelow     bool // some job's per-slot demand exceeds its parallel cap
	reserved     bool // some kind holds gate reservations after its deadline jobs
	oneKind      bool // some job demands only one kind
}

func genFillProblem(rng *rand.Rand) fillProblem {
	now, nCap := rng.Int63n(20), 1+rng.Int63n(16)
	capAt := make([]resource.Vector, nCap+40)
	for t := range capAt {
		capAt[t] = resource.New(rng.Int63n(17), rng.Int63n(17)*512)
	}
	f := New(Config{})
	f.adhocReserved = map[int64]resource.Vector{}
	for range rng.Intn(4) {
		f.adhocReserved[now+rng.Int63n(nCap)] = resource.New(rng.Int63n(6), rng.Int63n(6)*512)
	}
	var fp fillProblem
	js := make([]sched.JobState, 1+rng.Intn(10))
	for i := range js {
		rel := now - 3 + rng.Int63n(nCap+6)
		dl := rel + 1 + rng.Int63n(nCap+4)
		tasks := 1 + rng.Int63n(6)
		capV := resource.New(tasks, tasks*512)
		est := capV.Scale(1 + rng.Int63n(2*(dl-rel)))
		switch rng.Intn(4) {
		case 0:
			est = est.With(resource.MemoryMB, 0)
		case 1:
			est = est.With(resource.VCores, 0)
		}
		js[i] = dlJob(fmt.Sprintf("j%d", i), max(rel, 0), max(dl, 0), est, capV)
		js[i].MinSlots = 1 + rng.Int63n(3)
	}
	ctx := sched.AssignContext{Now: now, Jobs: js, Cluster: sched.ClusterView{
		SlotDur: slotDur, Horizon: now + nCap,
		CapAt: func(slot int64) resource.Vector { return capAt[slot-now] },
	}}
	slack := rng.Int63n(3)
	f.cfg.Slack = time.Duration(slack) * slotDur
	jobs, nSlots, nSlack := f.computeWindows(ctx)
	if len(jobs) == 0 {
		return fp
	}
	fp.jobs, fp.probs = jobs, f.stageA(ctx, jobs, nSlots, nSlack)
	fp.nSlots = keepSlack(jobs, fp.probs, nSlack)
	fp.from, fp.order = now, edfOrder(fp.jobs)
	fp.planCap = capAt[:fp.nSlots]
	for _, pj := range fp.jobs {
		if int64(pj.state.Deadline/slotDur)-slack > now+fp.nSlots {
			fp.cut = true
		}
		d, c := pj.state.EstRemaining, pj.state.ParallelCap.Scale(pj.dlSlot-pj.relSlot)
		if !d.FitsIn(c) {
			fp.capBelow = true
		}
		if d.Get(resource.VCores) == 0 || d.Get(resource.MemoryMB) == 0 {
			fp.oneKind = true
		}
	}
	for _, p := range fp.probs {
		if n := len(p.pjs); len(p.jobs) > n && p.jobs[n].Rel < fp.nSlots {
			fp.reserved = true // a reservation on the kept horizon
		}
	}
	return fp
}

// sameFill fails unless the plan the kind's rows merge into and its
// demand left match the reference's.
func sameFill(t *testing.T, what string, fp fillProblem, p *kindProblem, want *plan.Plan, remaining map[*planJob]int64) {
	t.Helper()
	if err := plan.Equal(merge([]*kindProblem{p}, fp.jobs, fp.from, fp.nSlots), want); err != nil {
		t.Fatalf("%s: %v rows differ from the reference: %v", what, p.kind, err)
	}
	for i, pj := range p.pjs {
		if p.left[i] != remaining[pj] {
			t.Fatalf("%s: %v job %s has %d left, the reference %d", what, p.kind, pj.state.ID, p.left[i], remaining[pj])
		}
	}
}

// TestFillMatchesReference holds the per-kind fill to the map-based fill
// it replaced on seeded replans whose windows are cut at the plan's end,
// whose parallel caps sit below their per-slot demand, whose kinds carry
// gate reservations after the deadline jobs and whose jobs may demand
// one kind only: the greedy rung and the rebuild, the repair's two sweeps
// over a random skyline load (budgets zero and negative among them) and
// fills at random slots and budgets must leave the same rows and the
// same demand left.
func TestFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	var problems, cut, capBelow, reserved, oneKind, nonPositive int
	for problems < 1200 {
		fp := genFillProblem(rng)
		if len(fp.jobs) == 0 {
			continue
		}
		problems++
		if fp.cut {
			cut++
		}
		if fp.capBelow {
			capBelow++
		}
		if fp.reserved {
			reserved++
		}
		if fp.oneKind {
			oneKind++
		}

		// The rebuild after post-validation: every kind's greedy rung.
		want := merge(nil, fp.jobs, fp.from, fp.nSlots)
		for _, p := range fp.probs {
			refGreedyPlanKind(p.kind, fp.order, refDemand(fp.jobs, p.kind), want, fp.planCap)
		}
		if err := plan.Equal(rebuildGreedy(fp.probs, fp.jobs, fp.from, fp.nSlots), want); err != nil {
			t.Fatalf("problem %d: the rebuild differs from the reference: %v", problems, err)
		}

		for _, p := range fp.probs {
			what := fmt.Sprintf("problem %d greedy", problems)
			want := merge(nil, fp.jobs, fp.from, fp.nSlots)
			remaining := refDemand(fp.jobs, p.kind)
			refGreedyPlanKind(p.kind, fp.order, remaining, want, fp.planCap)
			p.greedy()
			sameFill(t, what, fp, p, want, remaining)

			// The repair's two sweeps over the demand stage A routed.
			what = fmt.Sprintf("problem %d repair", problems)
			load := make([]float64, fp.nSlots)
			for k := range load {
				load[k] = rng.Float64() * float64(p.caps[k]+4)
			}
			kept, _ := p.reserved()
			want = merge(nil, fp.jobs, fp.from, fp.nSlots)
			remaining = refDemand(fp.jobs, p.kind)
			for i, pj := range p.pjs {
				remaining[pj] -= p.route.Short[i]
			}
			refRepair(p.kind, fp.order, remaining, want, p.caps, load, kept)
			p.repair(&flow.Skyline{Load: load}, kept)
			sameFill(t, what, fp, p, want, remaining)

			// Fills at random slots, repeated ones among them, and
			// budgets from -3 up, onto the repaired rows.
			what = fmt.Sprintf("problem %d fill", problems)
			for range 8 {
				slot, budget := rng.Int63n(fp.nSlots), rng.Int63n(20)-3
				if budget <= 0 {
					nonPositive++
				}
				wg, gg := refFillSlot(fp.order, remaining, want, p.kind, slot, budget), p.fill(slot, budget)
				if gg != wg {
					t.Fatalf("%s: %v at slot %d budget %d granted %d, the reference %d", what, p.kind, slot, budget, gg, wg)
				}
			}
			sameFill(t, what, fp, p, want, remaining)
		}
	}
	if cut == 0 || capBelow == 0 || reserved == 0 || oneKind == 0 || nonPositive == 0 {
		t.Fatalf("the problems missed a shape: %d cut windows, %d caps below demand, %d with reservations, %d one-kind jobs, %d non-positive budgets",
			cut, capBelow, reserved, oneKind, nonPositive)
	}
	t.Logf("%d problems: %d cut windows, %d caps below demand, %d with reservations, %d one-kind jobs, %d non-positive budgets",
		problems, cut, capBelow, reserved, oneKind, nonPositive)
}
