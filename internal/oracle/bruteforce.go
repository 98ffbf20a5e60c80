package oracle

import (
	"fmt"
	"math"
)

// maxBruteForceLeaves bounds the enumeration so a mis-sized instance
// fails loudly instead of hanging the test run.
const maxBruteForceLeaves = 4 << 20

// BFResult is the outcome of BruteForce.
type BFResult struct {
	// Feasible reports whether any integral allocation places every unit
	// of demand inside its window under the per-slot job caps (slot
	// capacities do not bound allocation here, exactly as in stage B: the
	// lexicographic θ may exceed 1 under overload; only zero-capacity
	// slots are hard).
	Feasible bool
	// BestSkyline is the lexicographically smallest descending-sorted
	// normalized skyline over the instance's group slots, across every
	// feasible integral allocation. Nil when infeasible.
	BestSkyline []float64
	// Enumerated is the number of complete allocations visited.
	Enumerated int64
}

// BruteForce enumerates every integral allocation of the instance and
// returns the best achievable skyline. Exactness of the feasibility
// verdict: the feasible region is a transportation polytope with
// integral data, so it is nonempty iff it contains an integral point —
// the integral enumeration decides feasibility of the planner's region
// exactly, not approximately. The skyline is exact only over integral
// points; the planner's optimum may be fractional and strictly better, so
// callers compare with LexLess (planner ⪯ brute force), not equality.
func BruteForce(in Instance) (*BFResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	groupSlots := in.GroupSlots()
	load := make([]int64, len(in.Caps))
	res := &BFResult{}

	var rec func(ji int) error
	rec = func(ji int) error {
		if ji == len(in.Jobs) {
			res.Enumerated++
			if res.Enumerated > maxBruteForceLeaves {
				return fmt.Errorf("oracle: brute force exceeded %d leaves; instance too large", int64(maxBruteForceLeaves))
			}
			sky := make([]float64, len(groupSlots))
			for gi, t := range groupSlots {
				sky[gi] = float64(load[t]) / float64(in.Caps[t])
			}
			sky = SortedDescending(sky)
			if !res.Feasible || LexLess(sky, res.BestSkyline, 0) {
				res.Feasible = true
				res.BestSkyline = sky
			}
			return nil
		}
		job := in.Jobs[ji]
		// Distribute job.Demand over [Rel, Dl) with per-slot x ≤ Cap and
		// x = 0 on zero-capacity slots.
		var place func(t, left int64) error
		place = func(t, left int64) error {
			if t == job.Dl {
				if left != 0 {
					return nil // dead branch: demand does not fit
				}
				return rec(ji + 1)
			}
			hi := job.Cap
			if in.Caps[t] == 0 {
				hi = 0
			}
			// Prune: the remaining slots must be able to absorb what is left.
			rest := int64(0)
			for u := t + 1; u < job.Dl; u++ {
				if in.Caps[u] > 0 {
					rest += job.Cap
				}
			}
			for x := int64(0); x <= hi && x <= left; x++ {
				if left-x > rest {
					continue
				}
				load[t] += x
				if err := place(t+1, left-x); err != nil {
					return err
				}
				load[t] -= x
			}
			return nil
		}
		return place(job.Rel, job.Demand)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return res, nil
}

// MinMaxLevelByCuts computes the exact optimal first level θ* — the
// minimized maximum normalized load — by enumerating every source/sink
// cut of the instance's transportation network, a derivation completely
// independent of the planner's network builder. The network is: source → job j with
// capacity Demand_j; job j → slot t (t in j's window, Caps[t] > 0) with
// capacity Cap_j; slot t → sink with capacity θ·Caps[t]. By max-flow
// min-cut, demand D routes iff for every A ⊆ jobs and B ⊆ group slots:
//
//	θ · Σ_{t∈B} Caps[t]  ≥  Σ_{j∈A} Demand_j − Σ_{j∈A, t∈win_j∖B} Cap_j
//
// so θ* is the maximum of the right-hand side over cuts with a positive
// denominator, and the instance is infeasible iff some cut with an empty
// denominator has a positive right-hand side. Exponential in jobs+slots;
// small instances only.
func MinMaxLevelByCuts(in Instance) (theta float64, feasible bool, err error) {
	if err := in.Validate(); err != nil {
		return 0, false, err
	}
	groupSlots := in.GroupSlots()
	if len(in.Jobs) > 8 || len(groupSlots) > 12 {
		return 0, false, fmt.Errorf("oracle: cut enumeration needs ≤8 jobs and ≤12 group slots, got %d/%d", len(in.Jobs), len(groupSlots))
	}
	inB := make([]bool, len(in.Caps))
	feasible = true
	for aMask := 0; aMask < 1<<len(in.Jobs); aMask++ {
		var demandA int64
		for ji := range in.Jobs {
			if aMask&(1<<ji) != 0 {
				demandA += in.Jobs[ji].Demand
			}
		}
		for bMask := 0; bMask < 1<<len(groupSlots); bMask++ {
			var capB int64
			for gi, t := range groupSlots {
				inB[t] = bMask&(1<<gi) != 0
				if inB[t] {
					capB += in.Caps[t]
				}
			}
			// Edges from jobs in A to slots outside B stay uncut and carry
			// up to Cap_j each (zero-capacity slots carry nothing).
			escape := int64(0)
			for ji, job := range in.Jobs {
				if aMask&(1<<ji) == 0 {
					continue
				}
				for t := job.Rel; t < job.Dl; t++ {
					if in.Caps[t] > 0 && !inB[t] {
						escape += job.Cap
					}
				}
			}
			need := demandA - escape
			for gi, t := range groupSlots {
				_ = gi
				inB[t] = false
			}
			if need <= 0 {
				continue
			}
			if capB == 0 {
				feasible = false
				continue
			}
			if th := float64(need) / float64(capB); th > theta {
				theta = th
			}
		}
	}
	if !feasible {
		return 0, false, nil
	}
	if math.IsInf(theta, 0) || math.IsNaN(theta) {
		return 0, false, fmt.Errorf("oracle: cut enumeration produced %v", theta)
	}
	return theta, true, nil
}
