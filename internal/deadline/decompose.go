// Package deadline implements FlowTime's workflow-deadline decomposition
// (paper §IV): the divide-and-conquer step that turns one workflow deadline
// into per-job (release, deadline) windows, transforming workflow
// scheduling into deadline-aware job scheduling.
//
// Two strategies are provided:
//
//   - ResourceDemand (the paper's contribution, §IV-B): group the DAG into
//     antichain sets via Kahn's algorithm, guarantee every set its minimum
//     runtime, then distribute the remaining slack proportionally to each
//     set's total resource demand rather than its runtime alone.
//   - CriticalPath (Yu et al. 2005, the prior approach and the paper's
//     fallback when slack is negative): distribute the whole window along
//     the critical path proportionally to per-job minimum runtimes.
//
// Both decide in exact integers: the demand weights are whole multiples of
// 1/L, L the lcm of the cluster's positive capacities, the slack's split
// and the critical path's windows are integer floors of 128-bit products,
// and a figure that does not fit 64 bits is an error naming the workflow,
// never a wrap. No float decides a window, so no ulp can move one.
package deadline

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
)

// Method identifies which decomposition strategy produced a result.
type Method int

// Decomposition methods. Enums start at one.
const (
	// ResourceDemand is the paper's demand-proportional slack distribution.
	ResourceDemand Method = iota + 1
	// CriticalPath is the runtime-proportional fallback (Yu et al. 2005).
	CriticalPath
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case ResourceDemand:
		return "resource-demand"
	case CriticalPath:
		return "critical-path"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Window is one job's scheduling window: the job may receive resources in
// [Release, Deadline), both offsets from the simulation epoch.
type Window struct {
	Release  time.Duration
	Deadline time.Duration
}

// Result is the output of Decompose.
type Result struct {
	// Windows[i] is the window of workflow job i.
	Windows []Window
	// Method records which strategy was used.
	Method Method
	// Sets holds the antichain sets (job indices) in execution order; nil
	// for the critical-path fallback.
	Sets [][]int
}

// Options tunes Decompose.
type Options struct {
	// Slot is the scheduling slot duration; must be > 0.
	Slot time.Duration
	// ClusterCap is the cluster capacity used for minimum-runtime and
	// demand normalization.
	ClusterCap resource.Vector
	// ForceCriticalPath selects the fallback unconditionally (used by the
	// decomposition ablation experiments).
	ForceCriticalPath bool
}

// Decompose splits the workflow's deadline into per-job windows.
//
// The resource-demand strategy (paper §IV-B):
//
//  1. Group jobs into antichain sets S_1..S_K with Kahn's algorithm.
//  2. minrt_k = max over jobs in S_k of the job's cluster-capped minimum
//     runtime; every set is guaranteed minrt_k.
//  3. slack = (deadline - submit) - Σ minrt_k. If slack < 0, fall back to
//     the critical-path strategy (footnote 1 of the paper).
//  4. Distribute slack across sets proportionally to each set's total
//     normalized resource demand (volume / cluster capacity, summed over
//     resource kinds and jobs in the set), weighed exactly in units of 1/L,
//     L the lcm of the positive capacities: set k's weight is the integer
//     Σ vol·(L/C), and apportion splits the slack by largest remainder.
//  5. Set k's window is [end_{k-1}, end_{k-1} + minrt_k + extra_k); every
//     job in the set shares that window.
//
// All windows are aligned to whole slots and exactly partition the
// slot-aligned workflow window, so the LP stage sees integral data (the
// total-unimodularity argument of the paper's Lemma 2 needs integral
// right-hand sides).
func Decompose(w *workflow.Workflow, opts Options) (*Result, error) {
	if opts.Slot <= 0 {
		return nil, fmt.Errorf("deadline: slot duration %v, want > 0", opts.Slot)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("deadline: %w", err)
	}

	totalSlots := int64((w.Deadline - w.Submit) / opts.Slot)
	if totalSlots < 1 {
		return nil, fmt.Errorf("deadline: workflow %s window %v shorter than one slot %v",
			w.ID, w.Deadline-w.Submit, opts.Slot)
	}

	minrt := make([]int64, w.NumJobs())
	for i := 0; i < w.NumJobs(); i++ {
		mr := w.Job(i).MinRuntimeSlots(opts.Slot, opts.ClusterCap)
		if mr < 0 {
			return nil, fmt.Errorf("deadline: workflow %s job %q cannot fit on the cluster",
				w.ID, w.Job(i).Name)
		}
		minrt[i] = mr
	}

	if opts.ForceCriticalPath {
		return criticalPathDecompose(w, opts, minrt, totalSlots)
	}

	sets, err := w.DAG().AntichainSets()
	if err != nil {
		return nil, fmt.Errorf("deadline: workflow %s: %w", w.ID, err)
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
	if slack < 0 {
		// Footnote 1: negative remaining time -> critical-path fallback.
		return criticalPathDecompose(w, opts, minrt, totalSlots)
	}

	// Normalized demand per set: Σ vol/C over its jobs and the kinds the
	// cluster has (paper: "resource demands are calculated according to
	// the number of tasks, the task running time and the resource
	// requirement of each task"), in units of 1/L, L the lcm of the
	// positive capacities, so every weight is a whole number.
	lcm, wide := uint64(1), uint64(0) // wide is non-zero once a figure passes 64 bits
	for _, c := range opts.ClusterCap {
		if c > 0 {
			var hi uint64
			hi, lcm = bits.Mul64(lcm/gcd(lcm, uint64(c)), uint64(c))
			wide |= hi
		}
	}
	demand := make([]uint64, len(sets))
	var sumDemand, carry uint64
	for k, set := range sets {
		for _, i := range set {
			for kind, v := range w.Job(i).Volume(opts.Slot) {
				if c := opts.ClusterCap[kind]; c > 0 {
					hi, lo := bits.Mul64(uint64(v), lcm/uint64(c))
					demand[k], carry = bits.Add64(demand[k], lo, 0)
					wide |= hi | carry | uint64(v)>>63 // a negative volume wrapped
				}
			}
		}
		sumDemand, carry = bits.Add64(sumDemand, demand[k], 0)
		wide |= carry
	}
	if wide != 0 || sumDemand == 0 { // every job demands a kind the cluster has: zero is a volume that wrapped
		return nil, fmt.Errorf("deadline: workflow %s: demand weights do not fit 64 bits", w.ID)
	}

	extra := apportion(slack, demand, sumDemand)

	windows := make([]Window, w.NumJobs())
	start := int64(0)
	for k, set := range sets {
		end := start + setMinrt[k] + extra[k]
		for _, i := range set {
			windows[i] = Window{
				Release:  w.Submit + time.Duration(start)*opts.Slot,
				Deadline: w.Submit + time.Duration(end)*opts.Slot,
			}
		}
		start = end
	}
	return &Result{Windows: windows, Method: ResourceDemand, Sets: sets}, nil
}

// apportion splits total into integer shares proportional to weights by
// the largest-remainder method, exactly: share k is ⌊total·w_k/sum⌋, and
// the total − Σ⌊·⌋ < len(weights) units left go one each to the largest
// remainders total·w_k mod sum (they share the denominator sum), ties to
// the lower index. The shares sum exactly to total, which is not negative;
// sum is Σ weights and positive.
func apportion(total int64, weights []uint64, sum uint64) []int64 {
	shares := make([]int64, len(weights))
	rem := make([]uint64, len(weights))
	order := make([]int, len(weights))
	left := total
	for k, wt := range weights {
		// wt ≤ sum, so the quotient fits and Div64 cannot panic.
		hi, lo := bits.Mul64(uint64(total), wt)
		q, r := bits.Div64(hi, lo, sum)
		shares[k], rem[k], order[k] = int64(q), r, k
		left -= int64(q)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rem[b], rem[a]) })
	for _, k := range order[:left] {
		shares[k]++
	}
	return shares
}

// criticalPathDecompose implements the traditional decomposition (Yu et
// al.): each job's window follows its longest-path prefix through the DAG,
// weighted by minimum runtimes, as [⌊(head−minrt)·H/cp⌋, ⌊head·H/cp⌋) of
// the H slots, cp the critical path. Used when the workflow's deadline is
// tighter than the sum of set runtimes, and by the ablation experiments.
func criticalPathDecompose(w *workflow.Workflow, opts Options, minrt []int64, totalSlots int64) (*Result, error) {
	head, cp, err := w.DAG().LongestPath(minrt)
	if err != nil {
		return nil, fmt.Errorf("deadline: workflow %s: %w", w.ID, err)
	}
	// head ≤ cp, so each quotient is at most H and fits: Div64 cannot
	// panic. minrt ≥ 1, so a release is below H and the clamp that widens
	// an empty window never passes H.
	slotAt := func(x int64) int64 {
		hi, lo := bits.Mul64(uint64(x), uint64(totalSlots))
		q, _ := bits.Div64(hi, lo, uint64(cp))
		return int64(q)
	}
	windows := make([]Window, w.NumJobs())
	for i := range windows {
		relSlot := slotAt(head[i] - minrt[i])
		dlSlot := max(slotAt(head[i]), relSlot+1)
		windows[i] = Window{
			Release:  w.Submit + time.Duration(relSlot)*opts.Slot,
			Deadline: w.Submit + time.Duration(dlSlot)*opts.Slot,
		}
	}
	return &Result{Windows: windows, Method: CriticalPath}, nil
}

// gcd is the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
