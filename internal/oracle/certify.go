package oracle

import (
	"fmt"
	"math/big"

	"flowtime/internal/flow"
)

// CheckSolution verifies a flow.LexMinMax answer, capped at maxLevels
// (0 = every level), from the instance and its certificate alone, in
// exact arithmetic. It builds no graph and calls nothing in flow.
//
// (a) Every job's row lies in its window, off zero-capacity slots, within
// its parallelism cap, and sums to its demand exactly. Every slot a level
// freezes carries exactly θ·C_t, the levels do not rise, and every slot
// left unfrozen is at or under the last one.
//
// (b) At each level the cut (A, B) it names has capacity
// Σ_{j∉A} D_j + Σ_{j∈A, t∉B} Cap_j + Σ_{t∈B} (θ·C_t − base_t), over the
// jobs and slots no level above froze — base_t being the Cap_j that jobs
// frozen above must put on t — equal to those jobs' demand. So no lower
// level routes them.
//
// The allocation is then a max flow at every level, each cut is tight,
// and the top levels are forced on any allocation that does as well:
// the skyline is lexicographically optimal, or for a cap its top
// maxLevels levels are.
func CheckSolution(in Instance, maxLevels int, sky *flow.Skyline) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(sky.Alloc) != len(in.Jobs) || len(sky.Den) != len(in.Jobs) {
		return fmt.Errorf("oracle: %d rows and %d denominators for %d jobs", len(sky.Alloc), len(sky.Den), len(in.Jobs))
	}
	load := make([]big.Rat, len(in.Caps))
	live := make([]bool, len(in.Caps)) // slots some job can load, not frozen yet
	jobLive := make([]bool, len(in.Jobs))
	demand := new(big.Int) // of the jobs not frozen yet
	for j, job := range in.Jobs {
		row, den := sky.Alloc[j], sky.Den[j]
		if job.Demand == 0 {
			if row != nil {
				return fmt.Errorf("oracle: job %d has no demand but a row", j)
			}
			continue
		}
		if den <= 0 || int64(len(row)) != job.Dl-job.Rel {
			return fmt.Errorf("oracle: job %d row has %d slots over 1/%d, window [%d, %d)", j, len(row), den, job.Rel, job.Dl)
		}
		jobLive[j] = true
		demand.Add(demand, big.NewInt(job.Demand))
		capDen := prod(job.Cap, den)
		sum := new(big.Int)
		for i, x := range row {
			t := job.Rel + int64(i)
			switch {
			case x < 0 || big.NewInt(x).Cmp(capDen) > 0:
				return fmt.Errorf("oracle: job %d slot %d allocation %d/%d outside [0, cap %d]", j, t, x, den, job.Cap)
			case x > 0 && in.Caps[t] == 0:
				return fmt.Errorf("oracle: job %d slot %d allocation %d/%d on zero-capacity slot", j, t, x, den)
			}
			sum.Add(sum, big.NewInt(x))
			load[t].Add(&load[t], big.NewRat(x, den))
			live[t] = live[t] || in.Caps[t] > 0
		}
		if sum.Cmp(prod(job.Demand, den)) != 0 {
			return fmt.Errorf("oracle: job %d allocated %s/%d, demand %d", j, sum, den, job.Demand)
		}
	}

	base := make([]big.Int, len(in.Caps))
	inB := make([]bool, len(in.Caps))
	var last *big.Rat
	for k, lv := range sky.Levels {
		if lv.Num < 0 || lv.Den <= 0 || len(lv.Slots) == 0 {
			return fmt.Errorf("oracle: level %d is %d/%d over %d slots", k, lv.Num, lv.Den, len(lv.Slots))
		}
		theta := big.NewRat(lv.Num, lv.Den)
		if last != nil && theta.Cmp(last) > 0 {
			return fmt.Errorf("oracle: level %d at %s rises above the one before, %s", k, theta, last)
		}
		last = theta
		// The cut's capacity is fixed + θ·capB.
		fixed, capB := new(big.Int).Set(demand), new(big.Int)
		for _, t := range lv.Slots {
			if t < 0 || t >= len(in.Caps) || !live[t] || inB[t] {
				return fmt.Errorf("oracle: level %d freezes slot %d, not live or named twice", k, t)
			}
			inB[t] = true
			if want := new(big.Rat).Mul(theta, big.NewRat(in.Caps[t], 1)); load[t].Cmp(want) != 0 {
				return fmt.Errorf("oracle: slot %d carries %s, level %d wants %s", t, load[t].RatString(), k, want.RatString())
			}
			capB.Add(capB, big.NewInt(in.Caps[t]))
			fixed.Sub(fixed, &base[t])
		}
		levelDemand := new(big.Int).Set(demand)
		for _, j := range lv.Jobs {
			if j < 0 || j >= len(in.Jobs) || !jobLive[j] {
				return fmt.Errorf("oracle: level %d freezes job %d, not live", k, j)
			}
			jobLive[j] = false
			job := in.Jobs[j]
			demand.Sub(demand, big.NewInt(job.Demand))
			fixed.Sub(fixed, big.NewInt(job.Demand))
			for t := job.Rel; t < job.Dl; t++ {
				if live[t] && !inB[t] {
					fixed.Add(fixed, big.NewInt(job.Cap))
					base[t].Add(&base[t], big.NewInt(job.Cap))
				}
			}
		}
		// fixed + θ·capB = levelDemand, times Den.
		lhs := new(big.Int).Mul(new(big.Int).Sub(levelDemand, fixed), big.NewInt(lv.Den))
		if lhs.Cmp(new(big.Int).Mul(big.NewInt(lv.Num), capB)) != 0 {
			return fmt.Errorf("oracle: level %d: cut capacity %s + %s·%s, demand %s", k, fixed, theta.RatString(), capB, levelDemand)
		}
		for _, t := range lv.Slots {
			live[t], inB[t] = false, false
		}
	}

	if maxLevels > 0 && len(sky.Levels) > maxLevels {
		return fmt.Errorf("oracle: %d levels, capped at %d", len(sky.Levels), maxLevels)
	}
	capped := maxLevels > 0 && len(sky.Levels) == maxLevels
	for j, on := range jobLive {
		if on && !capped {
			return fmt.Errorf("oracle: job %d is frozen at no level", j)
		}
	}
	for t, on := range live {
		if on && load[t].Cmp(new(big.Rat).Mul(last, big.NewRat(in.Caps[t], 1))) > 0 {
			return fmt.Errorf("oracle: unfrozen slot %d carries %s, above the last level %s", t, load[t].RatString(), last.RatString())
		}
	}
	return nil
}

// CheckRouting verifies a flow.Shortfall answer over order from the
// instance alone: for the whole order, and for the prefix of it that ends
// at each job that came up short, the volume those jobs routed equals
// the capacity at the hard slot capacities of the cut (A, B) the routing
// names for it, Σ_{j∉A} D_j + Σ_{j∈A, t∉B} Cap_j + Σ_{t∈B} C_t over the
// prefix's jobs. So no routing of the prefix carries more. That the
// volume routes at all is stage B's to prove (CheckSolution on the
// demand that fits).
func CheckRouting(in Instance, order []int, r *flow.Routing) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if len(order) != len(in.Jobs) || len(r.Short) != len(in.Jobs) || len(r.JobCut) != len(in.Jobs) || len(r.SlotCut) != len(in.Caps) {
		return fmt.Errorf("oracle: routing shape does not match %d jobs and %d slots", len(in.Jobs), len(in.Caps))
	}
	seen := make([]bool, len(in.Jobs))
	for _, j := range order {
		if j < 0 || j >= len(in.Jobs) || seen[j] {
			return fmt.Errorf("oracle: order entry %d out of range or repeated", j)
		}
		if r.Short[j] < 0 || r.Short[j] > in.Jobs[j].Demand {
			return fmt.Errorf("oracle: job %d short %d of demand %d", j, r.Short[j], in.Jobs[j].Demand)
		}
		seen[j] = true
	}
	for p, j := range order {
		if r.Short[j] == 0 && p < len(order)-1 {
			continue
		}
		onCut := func(at int) bool { return at >= 0 && at <= p }
		capacity, routed := new(big.Int), new(big.Int)
		for t, at := range r.SlotCut {
			if onCut(at) {
				capacity.Add(capacity, big.NewInt(in.Caps[t]))
			}
		}
		for _, i := range order[:p+1] {
			job := in.Jobs[i]
			routed.Add(routed, big.NewInt(job.Demand-r.Short[i]))
			if !onCut(r.JobCut[i]) {
				capacity.Add(capacity, big.NewInt(job.Demand))
				continue
			}
			for t := job.Rel; t < job.Dl; t++ {
				if in.Caps[t] > 0 && !onCut(r.SlotCut[t]) {
					capacity.Add(capacity, big.NewInt(job.Cap))
				}
			}
		}
		if routed.Cmp(capacity) != 0 {
			return fmt.Errorf("oracle: the first %d jobs in order route %s, their cut's capacity is %s", p+1, routed, capacity)
		}
	}
	return nil
}

func prod(a, b int64) *big.Int { return new(big.Int).Mul(big.NewInt(a), big.NewInt(b)) }
