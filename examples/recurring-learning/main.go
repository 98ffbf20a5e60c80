// Command recurring-learning demonstrates the premise the paper's whole
// design rests on (§I): because deadline-aware workflows are *recurring*,
// each run's observations sharpen the next run's estimates.
//
// Day 0 starts with badly wrong estimates (the true durations are 40%
// longer). Each subsequent "day" replays the same pipeline: the estimator
// records the actual durations and re-derives estimates, the deadline
// decomposition and the LP plan against the corrected numbers, and the
// deadline-miss count and estimate error fall run over run.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"flowtime"
	"flowtime/internal/estimate"
	"flowtime/internal/workflow"
)

const days = 4

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Println("recurring-learning:", err)
		os.Exit(1)
	}
}

// pipeline builds the recurring workflow with the *original* (wrong)
// estimates; the true durations are ~40% longer, with a little day-to-day
// wiggle (input sizes drift).
func pipeline(day int) *flowtime.Workflow {
	w := flowtime.NewWorkflow("hourly-rollup", 0, 40*time.Minute)
	names := []string{"ingest", "sessionize", "aggregate", "publish"}
	prev := -1
	for i, name := range names {
		est := 3 * time.Minute
		wiggle := time.Duration((day*7+i*3)%11-5) * time.Second // deterministic ±5s
		id := w.AddJob(flowtime.Job{
			Name:               name,
			Tasks:              12,
			TaskDuration:       est,
			ActualTaskDuration: est*14/10 + wiggle,
			TaskDemand:         flowtime.NewResources(1, 2048),
		})
		if prev >= 0 {
			w.AddDep(prev, id)
		}
		prev = id
	}
	return w
}

func run() error {
	store, err := estimate.NewStore(30)
	if err != nil {
		return err
	}

	fmt.Println("day | est error (mean) | jobs missed | workflow met")
	fmt.Println("----|------------------|-------------|-------------")
	for day := 0; day < days; day++ {
		w := pipeline(day)
		// Refine this run's estimates from everything observed so far.
		if _, err := store.Apply(w); err != nil {
			return err
		}
		errStats, err := estimate.MeasureError(w)
		if err != nil {
			return err
		}

		res, err := flowtime.Simulate(flowtime.SimConfig{
			SlotDur:   10 * time.Second,
			Horizon:   600,
			Capacity:  flowtime.ConstantCapacity(flowtime.NewResources(24, 48*1024)),
			Scheduler: flowtime.NewScheduler(flowtime.DefaultSchedulerConfig()),
			Workflows: []*flowtime.Workflow{w},
		})
		if err != nil {
			return err
		}
		sum := flowtime.Summarize("FlowTime", res)
		fmt.Printf("%3d | %15.1f%% | %11d | %v\n",
			day, errStats.MeanAbs*100, sum.JobsMissed, sum.WorkflowsMissed == 0)

		// Record the observed run for tomorrow.
		if err := store.RecordRun(w); err != nil {
			return err
		}
	}
	return nil
}

// Ensure the internal workflow type stays assignable through the facade
// (compile-time documentation that examples may mix both).
var _ = func(w *flowtime.Workflow) *workflow.Workflow { return w }
