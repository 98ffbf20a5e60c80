package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"flowtime/internal/lp"
)

// Scale returns the instance with every capacity, demand, and
// parallelism cap multiplied by k. The normalized skyline is invariant
// under this transformation, which is the first metamorphic relation.
func Scale(in Instance, k int64) Instance {
	out := Instance{Caps: make([]int64, len(in.Caps)), Jobs: make([]Job, len(in.Jobs))}
	for t, c := range in.Caps {
		out.Caps[t] = c * k
	}
	for j, job := range in.Jobs {
		job.Demand *= k
		job.Cap *= k
		out.Jobs[j] = job
	}
	return out
}

// PermuteJobs returns the instance with the job order shuffled. The
// problem is symmetric in job order, so the skyline must not change.
func PermuteJobs(in Instance, rng *rand.Rand) Instance {
	out := Instance{Caps: append([]int64(nil), in.Caps...), Jobs: append([]Job(nil), in.Jobs...)}
	rng.Shuffle(len(out.Jobs), func(a, b int) {
		out.Jobs[a], out.Jobs[b] = out.Jobs[b], out.Jobs[a]
	})
	return out
}

// SplitSlot returns the instance with slot t duplicated: a new slot of
// identical capacity is inserted right after t, and every window that
// extends past t stretches to cover the copy. Any original allocation
// remains valid (place the old slot-t allocation in the first copy), so
// a feasible instance stays feasible and the optimal max level cannot
// increase. The reverse does not hold — the copy adds headroom, so an
// infeasible instance may legally become feasible.
func SplitSlot(in Instance, t int64) Instance {
	out := Instance{Caps: make([]int64, 0, len(in.Caps)+1), Jobs: make([]Job, len(in.Jobs))}
	for u, c := range in.Caps {
		out.Caps = append(out.Caps, c)
		if int64(u) == t {
			out.Caps = append(out.Caps, c)
		}
	}
	for j, job := range in.Jobs {
		if job.Rel > t {
			job.Rel++
		}
		if job.Dl > t {
			job.Dl++
		}
		out.Jobs[j] = job
	}
	return out
}

// CheckScaleInvariance asserts the scale relation: solving k·instance
// yields the same feasibility verdict and the same sorted normalized
// skyline as the original.
func CheckScaleInvariance(solve Solver, in Instance, k int64, tol float64) error {
	if k < 1 {
		return fmt.Errorf("oracle: scale factor %d, want >= 1", k)
	}
	base, err := solve(in)
	if err != nil {
		return err
	}
	scaled, err := solve(Scale(in, k))
	if err != nil {
		return err
	}
	return compareRelation("scale", base, scaled, tol, true)
}

// CheckPermutationInvariance asserts the permutation relation: job
// order must not affect feasibility or the skyline.
func CheckPermutationInvariance(solve Solver, in Instance, rng *rand.Rand, tol float64) error {
	base, err := solve(in)
	if err != nil {
		return err
	}
	perm, err := solve(PermuteJobs(in, rng))
	if err != nil {
		return err
	}
	return compareRelation("permute", base, perm, tol, true)
}

// CheckSplitSlot asserts the slot-split relation: duplicating a slot
// must keep a feasible instance feasible and must not worsen the max
// level.
func CheckSplitSlot(solve Solver, in Instance, t int64, tol float64) error {
	if t < 0 || t >= int64(len(in.Caps)) {
		return fmt.Errorf("oracle: split slot %d out of range", t)
	}
	base, err := solve(in)
	if err != nil {
		return err
	}
	split, err := solve(SplitSlot(in, t))
	if err != nil {
		return err
	}
	return compareRelation("split", base, split, tol, false)
}

// compareRelation checks the relation's feasibility contract and, when
// exact is true, that the sorted skylines match level by level;
// otherwise only that the transformed max level did not get worse.
// Exact relations are bijections, so feasibility must agree both ways;
// relaxed relations (split) only add headroom, so they must preserve
// feasibility but may repair infeasibility.
func compareRelation(name string, base, other *LPResult, tol float64, exact bool) error {
	if exact && base.Feasible != other.Feasible {
		return fmt.Errorf("oracle: %s relation changed feasibility: %v -> %v", name, base.Feasible, other.Feasible)
	}
	if base.Feasible && !other.Feasible {
		return fmt.Errorf("oracle: %s relation lost feasibility", name)
	}
	if !base.Feasible {
		return nil
	}
	if exact {
		a := lp.SortedDescending(base.Levels)
		b := lp.SortedDescending(other.Levels)
		if len(a) != len(b) {
			return fmt.Errorf("oracle: %s relation changed group count: %d -> %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > tol {
				return fmt.Errorf("oracle: %s relation changed skyline at rank %d: %g -> %g", name, i, a[i], b[i])
			}
		}
		return nil
	}
	if len(base.Levels) == 0 {
		return nil
	}
	if mb, mo := lp.MaxLevel(base.Levels), lp.MaxLevel(other.Levels); mo > mb+tol {
		return fmt.Errorf("oracle: %s relation worsened max level: %g -> %g", name, mb, mo)
	}
	return nil
}
