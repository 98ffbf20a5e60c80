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
package deadline

import (
	"fmt"
	"sort"
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
//     resource kinds and jobs in the set).
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

	// Normalized demand per set: sum over jobs of volume/capacity over all
	// resource kinds (paper: "resource demands are calculated according to
	// the number of tasks, the task running time and the resource
	// requirement of each task").
	demand := make([]float64, len(sets))
	var sumDemand float64
	for k, set := range sets {
		for _, i := range set {
			vol := w.Job(i).Volume(opts.Slot)
			for _, kind := range resource.Kinds() {
				if c := opts.ClusterCap.Get(kind); c > 0 {
					demand[k] += float64(vol.Get(kind)) / float64(c)
				}
			}
		}
		sumDemand += demand[k]
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

// apportion splits total into integer shares proportional to weights using
// the largest-remainder method, so the shares sum exactly to total. Zero or
// negative total yields all-zero shares; an all-zero weight vector splits
// evenly.
func apportion(total int64, weights []float64, sum float64) []int64 {
	shares := make([]int64, len(weights))
	if total <= 0 || len(weights) == 0 {
		return shares
	}
	if sum <= 0 {
		// Even split.
		base := total / int64(len(weights))
		rem := total - base*int64(len(weights))
		for k := range shares {
			shares[k] = base
			if int64(k) < rem {
				shares[k]++
			}
		}
		return shares
	}
	type frac struct {
		k int
		f float64
	}
	fracs := make([]frac, len(weights))
	var used int64
	for k, wt := range weights {
		exact := float64(total) * wt / sum
		fl := int64(exact)
		shares[k] = fl
		used += fl
		fracs[k] = frac{k: k, f: exact - float64(fl)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].k < fracs[b].k // deterministic tie-break
	})
	for i := int64(0); i < total-used; i++ {
		shares[fracs[i%int64(len(fracs))].k]++
	}
	return shares
}

// criticalPathDecompose implements the traditional decomposition (Yu et
// al.): each job's window fraction follows its longest-path prefix through
// the DAG, weighted by minimum runtimes. Used when the workflow's deadline
// is tighter than the sum of set runtimes, and by the ablation experiments.
func criticalPathDecompose(w *workflow.Workflow, opts Options, minrt []int64, totalSlots int64) (*Result, error) {
	weights := make([]float64, w.NumJobs())
	for i, mr := range minrt {
		weights[i] = float64(mr)
	}
	head, _, cpLen, err := w.DAG().LongestPath(weights)
	if err != nil {
		return nil, fmt.Errorf("deadline: workflow %s: %w", w.ID, err)
	}
	if cpLen <= 0 {
		return nil, fmt.Errorf("deadline: workflow %s has zero-length critical path", w.ID)
	}

	windows := make([]Window, w.NumJobs())
	for i := 0; i < w.NumJobs(); i++ {
		relFrac := (head[i] - weights[i]) / cpLen
		dlFrac := head[i] / cpLen
		relSlot := int64(relFrac * float64(totalSlots))
		dlSlot := int64(dlFrac * float64(totalSlots))
		if dlSlot <= relSlot {
			dlSlot = relSlot + 1
		}
		if dlSlot > totalSlots {
			dlSlot = totalSlots
			if relSlot >= dlSlot {
				relSlot = dlSlot - 1
			}
		}
		windows[i] = Window{
			Release:  w.Submit + time.Duration(relSlot)*opts.Slot,
			Deadline: w.Submit + time.Duration(dlSlot)*opts.Slot,
		}
	}
	return &Result{Windows: windows, Method: CriticalPath}, nil
}
