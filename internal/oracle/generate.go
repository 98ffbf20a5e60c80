package oracle

import (
	"fmt"
	"math/rand"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// GenInstance draws a small single-kind instance sized for the
// brute-force and min-cut oracles: at most 4 slots and 3 jobs, with
// occasional zero-capacity slots and windows that deliberately include
// infeasible demand levels. Deterministic in the rng.
func GenInstance(rng *rand.Rand) Instance {
	nSlots := 1 + rng.Intn(4)
	caps := make([]int64, nSlots)
	for t := range caps {
		if rng.Intn(6) == 0 {
			caps[t] = 0 // occasionally a dead slot (maintenance / node loss)
		} else {
			caps[t] = 1 + rng.Int63n(4)
		}
	}
	nJobs := 1 + rng.Intn(3)
	jobs := make([]Job, nJobs)
	for j := range jobs {
		rel := rng.Int63n(int64(nSlots))
		dl := rel + 1 + rng.Int63n(int64(nSlots)-rel)
		jobs[j] = Job{
			Demand: rng.Int63n(7), // 0..6, zero demand included on purpose
			Rel:    rel,
			Dl:     dl,
			Cap:    1 + rng.Int63n(4),
		}
	}
	return Instance{Caps: caps, Jobs: jobs}
}

// GenLargeInstance draws an instance far beyond brute-force reach, for
// the interior-feasibility checker: up to 40 slots and 12 jobs with
// demands calibrated so both feasible and infeasible instances occur.
func GenLargeInstance(rng *rand.Rand) Instance {
	nSlots := 5 + rng.Intn(36)
	caps := make([]int64, nSlots)
	for t := range caps {
		if rng.Intn(10) == 0 {
			caps[t] = 0
		} else {
			caps[t] = 1 + rng.Int63n(50)
		}
	}
	nJobs := 1 + rng.Intn(12)
	jobs := make([]Job, nJobs)
	for j := range jobs {
		rel := rng.Int63n(int64(nSlots))
		dl := rel + 1 + rng.Int63n(int64(nSlots)-rel)
		cap := 1 + rng.Int63n(30)
		// Demand around cap x window so tight and impossible cases appear.
		maxD := cap * (dl - rel)
		jobs[j] = Job{
			Demand: rng.Int63n(maxD + maxD/2 + 2),
			Rel:    rel,
			Dl:     dl,
			Cap:    cap,
		}
	}
	return Instance{Caps: caps, Jobs: jobs}
}

// DeadlineRegime classifies how tight a generated workflow's deadline is.
type DeadlineRegime int

// Deadline regimes for GenScenario.
const (
	// RegimeTight leaves little slack above the critical path.
	RegimeTight DeadlineRegime = iota
	// RegimeLoose mimics the paper's production traces (factor >> 1).
	RegimeLoose
	// RegimeInfeasible sets the deadline below the critical path, forcing
	// the critical-path fallback or best-effort admission.
	RegimeInfeasible
)

// String names the regime.
func (r DeadlineRegime) String() string {
	switch r {
	case RegimeTight:
		return "tight"
	case RegimeLoose:
		return "loose"
	case RegimeInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// Scenario is one full-pipeline verification scenario: a cluster, a
// workflow mix across deadline regimes, and an ad-hoc arrival stream.
type Scenario struct {
	SlotDur   time.Duration
	Horizon   int64
	Capacity  resource.Vector
	Workflows []*workflow.Workflow
	AdHoc     []workflow.AdHoc
	// Regimes[i] is the deadline regime of Workflows[i].
	Regimes []DeadlineRegime
}

// GenScenario draws a deterministic scenario: 1-3 workflows over the
// DAG shapes the paper evaluates (chains, fan-out/fan-in, diamonds,
// random antichains), each in a tight, loose, or infeasible deadline
// regime, plus a Poisson ad-hoc stream. Deterministic in the rng.
func GenScenario(rng *rand.Rand) (*Scenario, error) {
	sc := &Scenario{
		SlotDur:  10 * time.Second,
		Horizon:  720, // 2 simulated hours
		Capacity: resource.New(40, 80_000),
	}
	shapes := []workload.Shape{
		workload.ShapeChain, workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeRandom,
	}
	nWF := 1 + rng.Intn(3)
	for i := 0; i < nWF; i++ {
		regime := DeadlineRegime(rng.Intn(3))
		var factor float64
		switch regime {
		case RegimeTight:
			factor = 1.2 + rng.Float64()*0.8
		case RegimeLoose:
			factor = 3 + rng.Float64()*5
		case RegimeInfeasible:
			factor = 0.3 + rng.Float64()*0.6
		}
		wf, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID:             fmt.Sprintf("wf-%d", i),
			Shape:          shapes[rng.Intn(len(shapes))],
			Jobs:           4 + rng.Intn(5),
			Submit:         time.Duration(rng.Int63n(60)) * 10 * time.Second,
			DeadlineFactor: factor,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		sc.Workflows = append(sc.Workflows, wf)
		sc.Regimes = append(sc.Regimes, regime)
	}
	if rng.Intn(4) != 0 { // most scenarios mix in ad-hoc load
		ahs, err := workload.GenerateAdHoc(rng, workload.AdHocSpec{
			Count:            1 + rng.Intn(6),
			MeanInterarrival: 2 * time.Minute,
			Start:            time.Duration(rng.Int63n(30)) * 10 * time.Second,
			MinTasks:         1, MaxTasks: 8,
			MinTaskDur: 20 * time.Second, MaxTaskDur: 3 * time.Minute,
			Demand: resource.New(1, 1024),
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		sc.AdHoc = ahs
	}
	return sc, nil
}
