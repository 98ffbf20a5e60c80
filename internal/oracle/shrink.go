package oracle

// Shrink greedily minimizes a failing instance while the predicate
// keeps failing (fails must return true on the input). It tries, in
// deterministic order: dropping a job, halving then decrementing a
// job's demand, lowering a job's parallelism cap, dropping a slot, and
// lowering a slot's capacity; it restarts after every accepted step and
// stops at a fixed point. The result is the smallest instance this
// greedy walk can reach that still fails — the thing to paste into a
// regression test.
func Shrink(in Instance, fails func(Instance) bool) Instance {
	if !fails(in) {
		return in
	}
	cur := clone(in)
	for iter := 0; iter < 10_000; iter++ {
		if next, ok := shrinkStep(cur, fails); ok {
			cur = next
			continue
		}
		break
	}
	return cur
}

func shrinkStep(cur Instance, fails func(Instance) bool) (Instance, bool) {
	// Drop a job.
	for j := range cur.Jobs {
		c := clone(cur)
		c.Jobs = append(c.Jobs[:j], c.Jobs[j+1:]...)
		if fails(c) {
			return c, true
		}
	}
	// Reduce a job's demand: halve first (fast), then decrement.
	for j := range cur.Jobs {
		if cur.Jobs[j].Demand > 1 {
			c := clone(cur)
			c.Jobs[j].Demand /= 2
			if fails(c) {
				return c, true
			}
		}
		if cur.Jobs[j].Demand > 0 {
			c := clone(cur)
			c.Jobs[j].Demand--
			if fails(c) {
				return c, true
			}
		}
	}
	// Lower a job's parallelism cap.
	for j := range cur.Jobs {
		if cur.Jobs[j].Cap > 0 {
			c := clone(cur)
			c.Jobs[j].Cap--
			if fails(c) {
				return c, true
			}
		}
	}
	// Drop a slot (windows shift left; jobs whose window collapses go too).
	for t := int64(0); t < int64(len(cur.Caps)); t++ {
		if len(cur.Caps) == 1 {
			break
		}
		c := Instance{Caps: make([]int64, 0, len(cur.Caps)-1)}
		for u, cap := range cur.Caps {
			if int64(u) != t {
				c.Caps = append(c.Caps, cap)
			}
		}
		for _, job := range cur.Jobs {
			if job.Rel > t {
				job.Rel--
			}
			if job.Dl > t {
				job.Dl--
			}
			if job.Rel < job.Dl {
				c.Jobs = append(c.Jobs, job)
			}
		}
		if fails(c) {
			return c, true
		}
	}
	// Lower a slot's capacity.
	for t := range cur.Caps {
		if cur.Caps[t] > 0 {
			c := clone(cur)
			c.Caps[t]--
			if fails(c) {
				return c, true
			}
		}
	}
	return cur, false
}

func clone(in Instance) Instance {
	return Instance{
		Caps: append([]int64(nil), in.Caps...),
		Jobs: append([]Job(nil), in.Jobs...),
	}
}

// ShrinkScenario greedily minimizes a failing scenario: drop whole
// workflows and ad-hoc jobs, then halve the horizon, keeping every
// reduction for which fails still reports failure. fails must be
// deterministic.
func ShrinkScenario(sc *Scenario, fails func(*Scenario) bool) *Scenario {
	cur := cloneScenario(sc)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Workflows); i++ {
			cand := cloneScenario(cur)
			cand.Workflows = append(cand.Workflows[:i:i], cand.Workflows[i+1:]...)
			cand.Regimes = append(cand.Regimes[:i:i], cand.Regimes[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.AdHoc); i++ {
			cand := cloneScenario(cur)
			cand.AdHoc = append(cand.AdHoc[:i:i], cand.AdHoc[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		if h := cur.Horizon / 2; h >= 8 {
			cand := cloneScenario(cur)
			cand.Horizon = h
			if fails(cand) {
				cur, changed = cand, true
			}
		}
	}
	return cur
}

// cloneScenario shallow-copies the scenario with fresh slices, so
// shrink candidates never alias each other.
func cloneScenario(sc *Scenario) *Scenario {
	out := *sc
	out.Workflows = append(out.Workflows[:0:0], out.Workflows...)
	out.AdHoc = append(out.AdHoc[:0:0], out.AdHoc...)
	out.Regimes = append(out.Regimes[:0:0], out.Regimes...)
	return &out
}
