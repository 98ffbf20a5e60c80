// Command ftgen generates a synthetic workload trace (the stand-in for the
// paper's proprietary production traces) and writes it as JSON to stdout
// or a file.
//
// Usage:
//
//	ftgen [-o trace.json] [-seed 1] [-workflows 5] [-jobs 18]
//	      [-deadline-factor 2.5] [-adhoc 40] [-adhoc-gap 45s]
//	      [-err-lo 0] [-err-hi 0]
//	ftgen -scenario diurnal [-machines 100] [-days 3] [-seed 1] [-o trace.json]
//
// With -scenario the trace comes from the scenario engine (diurnal,
// flash, stragglers, churn, energy) and carries a provenance block
// (generator, seed, parameters) — ftsim can replay the file, or
// regenerate the exact scenario (including machine events, which the
// trace schema does not carry) from the recorded seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/scenario"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		out            = flag.String("o", "", "output file (default stdout)")
		seed           = flag.Int64("seed", 1, "random seed")
		scenarioName   = flag.String("scenario", "", fmt.Sprintf("emit a scenario trace: %s", strings.Join(scenario.Names(), ", ")))
		machines       = flag.Int("machines", 0, "scenario cluster size (scenario mode; default 100)")
		days           = flag.Int("days", 0, "scenario length in days (scenario mode; default 3)")
		slot           = flag.Duration("slot", 0, "scenario slot duration (scenario mode; default 60s)")
		workflows      = flag.Int("workflows", 5, "number of deadline workflows")
		jobs           = flag.Int("jobs", 18, "jobs per workflow")
		deadlineFactor = flag.Float64("deadline-factor", 2.5, "deadline = factor x critical path")
		adhocCount     = flag.Int("adhoc", 40, "number of ad-hoc jobs")
		adhocGap       = flag.Duration("adhoc-gap", 45*time.Second, "mean ad-hoc interarrival")
		errLo          = flag.Float64("err-lo", 0, "estimation error lower bound (e.g. -0.2)")
		errHi          = flag.Float64("err-hi", 0, "estimation error upper bound (e.g. 0.3)")
	)
	flag.Parse()

	var err error
	if *scenarioName != "" {
		err = runScenario(*out, scenario.Spec{
			Name:     *scenarioName,
			Seed:     *seed,
			Machines: *machines,
			Days:     *days,
			SlotDur:  *slot,
		})
	} else {
		err = run(*out, *seed, *workflows, *jobs, *deadlineFactor, *adhocCount, *adhocGap, *errLo, *errHi)
	}
	if err != nil {
		log.Println("ftgen:", err)
		os.Exit(1)
	}
}

// runScenario writes a generated scenario's trace to the output.
func runScenario(out string, spec scenario.Spec) error {
	sc, err := scenario.Generate(spec)
	if err != nil {
		return err
	}
	w, closeFn, err := openOut(out)
	if err != nil {
		return err
	}
	defer closeFn()
	return sc.WriteTrace(w)
}

// openOut opens the output target (stdout when empty).
func openOut(out string) (io.Writer, func(), error) {
	if out == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, func() {
		if cerr := f.Close(); cerr != nil {
			log.Println("ftgen: close:", cerr)
		}
	}, nil
}

func run(out string, seed int64, nWf, jobs int, factor float64, adhocCount int, adhocGap time.Duration, errLo, errHi float64) error {
	rng := rand.New(rand.NewSource(seed))
	shapes := []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage,
		workload.ShapeEpigenomics, workload.ShapeRandom,
	}
	var wfs []*workflow.Workflow
	for i := 0; i < nWf; i++ {
		w, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID:             fmt.Sprintf("wf-%d", i),
			Shape:          shapes[i%len(shapes)],
			Jobs:           jobs,
			Submit:         time.Duration(i) * 2 * time.Minute,
			DeadlineFactor: factor,
		})
		if err != nil {
			return err
		}
		if errLo != 0 || errHi != 0 {
			if err := workload.InjectEstimationError(rng, []*workflow.Workflow{w}, errLo, errHi, 0); err != nil {
				return err
			}
		}
		wfs = append(wfs, w)
	}
	adhoc, err := workload.GenerateAdHoc(rng, workload.AdHocSpec{
		Count:            adhocCount,
		MeanInterarrival: adhocGap,
		MinTasks:         2, MaxTasks: 10,
		MinTaskDur: 20 * time.Second, MaxTaskDur: 2 * time.Minute,
		Demand: resource.New(1, 1024),
	})
	if err != nil {
		return err
	}
	tr, err := trace.FromWorkload(wfs, adhoc)
	if err != nil {
		return err
	}

	w, closeFn, err := openOut(out)
	if err != nil {
		return err
	}
	defer closeFn()
	return tr.Write(w)
}
