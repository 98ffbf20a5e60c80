// Package scenario is the trace-driven scenario engine: seeded synthetic
// generators for the stress patterns the related literature studies —
// diurnal load, flash crowds, straggler-inflated runtimes ("Do the Hard
// Stuff First", Grandl et al.), machine churn, and energy/price-varying
// capacity (Sarkar et al.) — plus converters that turn Alibaba
// cluster-trace 2018 and Google ClusterData 2019 subsets into a native
// trace.
//
// A Scenario bundles everything one simulated run needs: the workload
// (workflows + ad-hoc stream), the machine set live at slot 0, and the
// timed machine events (joins, leaves, failures, capacity scaling) the
// machine-granular simulator consumes. Every generator is deterministic
// from its seed: equal Specs produce byte-identical traces.
package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
)

// Spec parameterizes a synthetic scenario. The zero value of every knob
// picks a sensible default; the workload density follows from Machines.
type Spec struct {
	// Name selects the generator; see Names.
	Name string
	// Seed drives all randomness; equal specs generate identical
	// scenarios. Default 1.
	Seed int64
	// Machines is the cluster size. Default 100.
	Machines int
	// Days is the simulated duration in days. Default 3.
	Days int
	// SlotDur is the scheduling slot. Default 60s (datacenter-scale runs
	// trade slot resolution for horizon length; the paper's 10s slots
	// remain the default for testbed-scale traces).
	SlotDur time.Duration
	// MachineCores/MachineMemMB size each machine. Defaults: 16 cores,
	// 32 GiB.
	MachineCores int64
	MachineMemMB int64
}

// Names lists the synthetic generators.
func Names() []string {
	return []string{"diurnal", "flash", "stragglers", "churn", "energy"}
}

// withDefaults fills unset knobs.
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Machines == 0 {
		s.Machines = 100
	}
	if s.Days == 0 {
		s.Days = 3
	}
	if s.SlotDur == 0 {
		s.SlotDur = time.Minute
	}
	if s.MachineCores == 0 {
		s.MachineCores = 16
	}
	if s.MachineMemMB == 0 {
		s.MachineMemMB = 32 * 1024
	}
	return s
}

// workflowsPerDay is the deadline-workflow arrival count per day: one per
// 200 machines, at least 4.
func (s Spec) workflowsPerDay() int { return max(4, s.Machines/200) }

// adhocPerDay is the ad-hoc arrival count per day: one per 10 machines, at
// least 24.
func (s Spec) adhocPerDay() int { return max(24, s.Machines/10) }

// scale is the cluster size in units of 50 machines, at least 1: the
// factor that widens task counts, and the machines churn takes out an
// hour.
func (s Spec) scale() int { return max(1, s.Machines/50) }

func (s Spec) validate() error {
	if s.Machines < 1 {
		return fmt.Errorf("scenario: machines = %d, want >= 1", s.Machines)
	}
	if s.Days < 1 {
		return fmt.Errorf("scenario: days = %d, want >= 1", s.Days)
	}
	if s.SlotDur <= 0 {
		return fmt.Errorf("scenario: slot duration %v, want > 0", s.SlotDur)
	}
	return nil
}

// horizonSlots is the scenario length in slots.
func (s Spec) horizonSlots() int64 {
	return int64(s.Days) * int64(24*time.Hour/s.SlotDur)
}

// Scenario is one generated (or loaded) run description.
type Scenario struct {
	// Spec is the resolved spec (defaults filled in).
	Spec Spec
	// Meta is the provenance block written into emitted traces.
	Meta trace.Meta
	// Machines are the nodes live at slot 0.
	Machines []machine.Spec
	// Events are the timed machine events, slot-sorted.
	Events []machine.Event
	// Workflows and AdHoc are the workload.
	Workflows []*workflow.Workflow
	AdHoc     []workflow.AdHoc
	// Horizon is the run length in slots; SlotDur the slot duration.
	Horizon int64
	SlotDur time.Duration
}

// Generate builds the named synthetic scenario.
func Generate(spec Spec) (*Scenario, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sc := &Scenario{
		Spec:    spec,
		Horizon: spec.horizonSlots(),
		SlotDur: spec.SlotDur,
		Machines: machine.Homogeneous("m", spec.Machines,
			resource.New(spec.MachineCores, spec.MachineMemMB)),
		Meta: trace.Meta{
			Generator: "scenario/" + spec.Name,
			Seed:      spec.Seed,
			Params: map[string]string{
				"machines":          fmt.Sprintf("%d", spec.Machines),
				"days":              fmt.Sprintf("%d", spec.Days),
				"slot":              spec.SlotDur.String(),
				"machine_cores":     fmt.Sprintf("%d", spec.MachineCores),
				"machine_mem_mb":    fmt.Sprintf("%d", spec.MachineMemMB),
				"workflows_per_day": fmt.Sprintf("%d", spec.workflowsPerDay()),
				"adhoc_per_day":     fmt.Sprintf("%d", spec.adhocPerDay()),
			},
		},
	}
	var err error
	switch spec.Name {
	case "diurnal":
		err = genDiurnal(rng, spec, sc)
	case "flash":
		err = genFlash(rng, spec, sc)
	case "stragglers":
		err = genStragglers(rng, spec, sc)
	case "churn":
		err = genChurn(rng, spec, sc)
	case "energy":
		err = genEnergy(rng, spec, sc)
	default:
		return nil, fmt.Errorf("scenario: unknown generator %q (have %v)", spec.Name, Names())
	}
	if err != nil {
		return nil, err
	}
	machine.SortEvents(sc.Events)
	return sc, nil
}

// WriteTrace writes the scenario's workload as a native trace with the
// scenario's provenance block. Machine events are not part of the trace
// schema; they are regenerated from the recorded generator name and seed
// (the meta block makes that exact).
func (sc *Scenario) WriteTrace(w io.Writer) error {
	tr, err := trace.FromWorkload(sc.Workflows, sc.AdHoc)
	if err != nil {
		return err
	}
	meta := sc.Meta
	tr.Meta = &meta
	return tr.Write(w)
}
