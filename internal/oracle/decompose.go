package oracle

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"flowtime/internal/deadline"
	"flowtime/internal/resource"
	"flowtime/internal/workflow"
)

// CheckDecomposition asserts the paper's Stage-1 invariants on a
// Decompose result, recomputing every quantity (antichain sets, minimum
// runtimes, slack, demands) from the workflow itself rather than trusting
// the decomposer's intermediates:
//
//   - every window nests inside the slot-aligned workflow window
//     [ws, ws + totalSlots·slot] and is aligned to whole slots;
//   - the method matches the paper's rule: resource-demand when the
//     recomputed slack is non-negative, critical-path fallback otherwise
//     (or when forced);
//   - precedence is preserved: strictly (pred deadline ≤ succ release)
//     for resource-demand; weakly (release and deadline monotone along
//     edges) for the critical-path fallback, whose slot rounding under
//     very tight windows can legally overlap adjacent windows;
//   - every window is the exact one, recomputed in math/big without the
//     decomposer's lcm scaling (demandWindows, criticalPathWindows), and
//     resource-demand results report the recomputed antichain sets. Each
//     set then shares one window, the sets' windows partition the workflow
//     window in topological order, every set gets at least its minimum
//     runtime and the slack is distributed exactly; with strict precedence
//     along every edge, no set holds a job that reaches another.
func CheckDecomposition(w *workflow.Workflow, opts deadline.Options, res *deadline.Result) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if res == nil {
		return fmt.Errorf("oracle: nil decomposition result")
	}
	n := w.NumJobs()
	if len(res.Windows) != n {
		return fmt.Errorf("oracle: %d windows for %d jobs", len(res.Windows), n)
	}
	totalSlots := int64((w.Deadline - w.Submit) / opts.Slot)
	horizon := w.Submit + time.Duration(totalSlots)*opts.Slot

	for i, win := range res.Windows {
		if win.Release < w.Submit || win.Deadline > horizon || win.Release >= win.Deadline {
			return fmt.Errorf("oracle: job %d window [%v, %v) escapes workflow window [%v, %v)",
				i, win.Release, win.Deadline, w.Submit, horizon)
		}
		if (win.Release-w.Submit)%opts.Slot != 0 || (win.Deadline-w.Submit)%opts.Slot != 0 {
			return fmt.Errorf("oracle: job %d window [%v, %v) not slot-aligned (slot %v)",
				i, win.Release, win.Deadline, opts.Slot)
		}
	}

	// Recompute the method decision independently.
	sets, err := w.DAG().AntichainSets()
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	minrt := make([]int64, n)
	for i := 0; i < n; i++ {
		mr := w.Job(i).MinRuntimeSlots(opts.Slot, opts.ClusterCap)
		if mr < 0 {
			return fmt.Errorf("oracle: job %d does not fit the cluster", i)
		}
		minrt[i] = mr
	}
	setMinrt := make([]int64, len(sets))
	var sumMinrt int64
	for k, set := range sets {
		for _, i := range set {
			if minrt[i] > setMinrt[k] {
				setMinrt[k] = minrt[i]
			}
		}
		sumMinrt += setMinrt[k]
	}
	slack := totalSlots - sumMinrt

	wantMethod := deadline.ResourceDemand
	if opts.ForceCriticalPath || slack < 0 {
		wantMethod = deadline.CriticalPath
	}
	if res.Method != wantMethod {
		return fmt.Errorf("oracle: method %v, recomputed slack %d demands %v", res.Method, slack, wantMethod)
	}

	// Precedence along every DAG edge.
	for u := 0; u < n; u++ {
		for _, v := range w.DAG().Successors(u) {
			wu, wv := res.Windows[u], res.Windows[v]
			if res.Method == deadline.ResourceDemand {
				if wu.Deadline > wv.Release {
					return fmt.Errorf("oracle: edge %d->%d: pred deadline %v after succ release %v",
						u, v, wu.Deadline, wv.Release)
				}
			} else if wu.Release > wv.Release || wu.Deadline > wv.Deadline {
				return fmt.Errorf("oracle: edge %d->%d: windows [%v,%v) -> [%v,%v) not monotone",
					u, v, wu.Release, wu.Deadline, wv.Release, wv.Deadline)
			}
		}
	}

	var want [][2]int64
	if res.Method == deadline.ResourceDemand {
		if !slices.EqualFunc(res.Sets, sets, slices.Equal[[]int]) {
			return fmt.Errorf("oracle: sets %v reported, %v recomputed", res.Sets, sets)
		}
		want = demandWindows(w, opts, sets, setMinrt, slack)
	} else if want, err = criticalPathWindows(w, minrt, totalSlots); err != nil {
		return err
	}
	for i, win := range res.Windows {
		if got := [2]int64{int64((win.Release - w.Submit) / opts.Slot), int64((win.Deadline - w.Submit) / opts.Slot)}; got != want[i] {
			return fmt.Errorf("oracle: job %d window at slots %v, the exact %v split gives %v", i, got, res.Method, want[i])
		}
	}
	return nil
}

// demandWindows are the resource-demand windows, in slots from the
// submission. With set k's demand d_k = Σ vol/C over its jobs and the kinds
// the cluster has, in big.Rat, and D = Σ d_k, set k takes its minimum
// runtime and ⌊slack·d_k/D⌋ slots more, and the slack − Σ⌊·⌋ sets of the
// largest remainders, the lowest index first among equals, one more.
func demandWindows(w *workflow.Workflow, opts deadline.Options, sets [][]int, setMinrt []int64, slack int64) [][2]int64 {
	rem := make([]*big.Rat, len(sets))
	total := new(big.Rat)
	for k, set := range sets {
		rem[k] = new(big.Rat)
		for _, i := range set {
			vol := w.Job(i).Volume(opts.Slot)
			for _, kind := range resource.Kinds() {
				if c := opts.ClusterCap.Get(kind); c > 0 {
					rem[k].Add(rem[k], big.NewRat(vol.Get(kind), c))
				}
			}
		}
		total.Add(total, rem[k])
	}
	extra := make([]int64, len(sets))
	order := make([]int, len(sets))
	left := slack
	for k, r := range rem {
		r.Mul(r, big.NewRat(slack, 1)).Quo(r, total)
		extra[k] = new(big.Int).Quo(r.Num(), r.Denom()).Int64()
		r.Sub(r, big.NewRat(extra[k], 1))
		order[k] = k
		left -= extra[k]
	}
	slices.SortStableFunc(order, func(a, b int) int { return rem[b].Cmp(rem[a]) })
	for _, k := range order[:left] {
		extra[k]++
	}
	want := make([][2]int64, w.NumJobs())
	var start int64
	for k, set := range sets {
		end := start + setMinrt[k] + extra[k]
		for _, i := range set {
			want[i] = [2]int64{start, end}
		}
		start = end
	}
	return want
}

// criticalPathWindows are the fallback's windows, in slots from the
// submission: with head the longest minimum-runtime path to a job, its own
// included, cp the longest of them and H the workflow's whole slots, a
// job's window is [⌊(head−minrt)·H/cp⌋, ⌊head·H/cp⌋), in math/big, widened
// to one slot when empty.
func criticalPathWindows(w *workflow.Workflow, minrt []int64, totalSlots int64) ([][2]int64, error) {
	head, cp, err := w.DAG().LongestPath(minrt)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	at := func(x int64) int64 {
		p := new(big.Int).Mul(big.NewInt(x), big.NewInt(totalSlots))
		return p.Quo(p, big.NewInt(cp)).Int64()
	}
	want := make([][2]int64, len(minrt))
	for i := range want {
		rel := at(head[i] - minrt[i])
		want[i] = [2]int64{rel, max(at(head[i]), rel+1)}
	}
	return want, nil
}
