package sim

import (
	"fmt"
	"math"
	"math/rand"

	"flowtime/internal/resource"
)

// FaultInjection perturbs a run's ground truth for chaos tests of the
// scheduling pipeline: the scheduler still sees the clean estimates, but
// the actual work diverges, driving estimate revisions and replan
// storms. Perturbations are deterministic given Seed.
type FaultInjection struct {
	// Seed seeds the perturbation stream. Runs with equal configs and
	// seeds are identical.
	Seed int64
	// RuntimeJitter j scales each job's actual volume by an independent
	// factor uniform in [1-j, 1+j]. Must be in [0, 1).
	RuntimeJitter float64
	// StragglerFrac marks roughly that fraction of jobs as stragglers,
	// whose actual volume is further multiplied by StragglerFactor. Must
	// be in [0, 1].
	StragglerFrac float64
	// StragglerFactor is the straggler volume multiplier; 0 means 2.
	StragglerFactor float64
}

func (fi *FaultInjection) validate() error {
	if fi.RuntimeJitter < 0 || fi.RuntimeJitter >= 1 {
		return fmt.Errorf("fault injection: runtime jitter %v, want [0, 1)", fi.RuntimeJitter)
	}
	if fi.StragglerFrac < 0 || fi.StragglerFrac > 1 {
		return fmt.Errorf("fault injection: straggler fraction %v, want [0, 1]", fi.StragglerFrac)
	}
	if fi.StragglerFactor < 0 {
		return fmt.Errorf("fault injection: straggler factor %v, want >= 0", fi.StragglerFactor)
	}
	return nil
}

// newRand validates the config and returns the perturbation stream, or
// (nil, nil) when fault injection is disabled.
func (fi *FaultInjection) newRand() (*rand.Rand, error) {
	if fi == nil {
		return nil, nil
	}
	if err := fi.validate(); err != nil {
		return nil, err
	}
	return rand.New(rand.NewSource(fi.Seed)), nil
}

// perturb scales one job's actual volume by the configured jitter and
// straggler factors. Jobs are perturbed in construction order, so the
// mapping from seed to per-job factors is stable.
func (fi *FaultInjection) perturb(rng *rand.Rand, v resource.Vector) resource.Vector {
	if fi == nil || rng == nil {
		return v
	}
	factor := 1.0
	if fi.RuntimeJitter > 0 {
		factor = 1 - fi.RuntimeJitter + 2*fi.RuntimeJitter*rng.Float64()
	}
	if fi.StragglerFrac > 0 && rng.Float64() < fi.StragglerFrac {
		sf := fi.StragglerFactor
		if sf == 0 {
			sf = 2
		}
		factor *= sf
	}
	if factor == 1 {
		return v
	}
	out := v
	for _, k := range resource.Kinds() {
		if x := v.Get(k); x > 0 {
			scaled := int64(math.Round(float64(x) * factor))
			if scaled < 1 {
				scaled = 1 // a job never perturbs into zero work
			}
			out = out.With(k, scaled)
		}
	}
	return out
}
