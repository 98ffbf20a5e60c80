// Package flowtime is a library implementation of FlowTime (Hu, Li, Chen,
// Ke — "FlowTime: Dynamic Scheduling of Deadline-Aware Workflows and
// Ad-hoc Jobs", IEEE ICDCS 2018): a cluster scheduler that meets the
// deadlines of recurring data-analytics workflows while simultaneously
// minimizing the average turnaround time of best-effort ad-hoc jobs.
//
// The library has three layers, all usable independently:
//
//   - Workload modelling: Workflow DAGs of jobs with resource estimates
//     (NewWorkflow, Job, AdHoc) and deadline decomposition into per-job
//     windows (Decompose).
//   - Scheduling: the FlowTime scheduler (NewScheduler) and the paper's
//     baselines (NewEDF, NewFIFO, NewFair, NewCORA, NewMorpheus), all
//     implementing the Scheduler interface.
//   - Simulation: a slot-quantized cluster simulator (Simulate) that
//     executes any Scheduler against a workload and reports per-job,
//     per-workflow, and ad-hoc outcomes (Summarize).
//
// A minimal end-to-end use:
//
//	w := flowtime.NewWorkflow("daily-etl", 0, 2*time.Hour)
//	extract := w.AddJob(flowtime.Job{Name: "extract", Tasks: 16,
//		TaskDuration: 3 * time.Minute, TaskDemand: flowtime.NewResources(1, 2048)})
//	load := w.AddJob(flowtime.Job{Name: "load", Tasks: 8,
//		TaskDuration: 5 * time.Minute, TaskDemand: flowtime.NewResources(2, 4096)})
//	w.AddDep(extract, load)
//
//	res, err := flowtime.Simulate(flowtime.SimConfig{
//		SlotDur:   10 * time.Second,
//		Horizon:   1000,
//		Capacity:  flowtime.ConstantCapacity(flowtime.NewResources(64, 128*1024)),
//		Scheduler: flowtime.NewScheduler(flowtime.DefaultSchedulerConfig()),
//		Workflows: []*flowtime.Workflow{w},
//	})
//
// See the examples directory for complete programs.
package flowtime

import (
	"time"

	"flowtime/internal/core"
	"flowtime/internal/deadline"
	"flowtime/internal/metrics"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/workflow"
)

// Resource model.
type (
	// Resources is a multi-dimensional resource amount (vcores, memory).
	Resources = resource.Vector
	// ResourceKind identifies one resource dimension.
	ResourceKind = resource.Kind
)

// Resource kinds.
const (
	VCores   = resource.VCores
	MemoryMB = resource.MemoryMB
)

// NewResources builds a resource vector from vcores and memory (MiB).
func NewResources(vcores, memoryMB int64) Resources {
	return resource.New(vcores, memoryMB)
}

// Workload model.
type (
	// Job is one node of a workflow DAG.
	Job = workflow.Job
	// Workflow is a deadline-aware DAG of jobs.
	Workflow = workflow.Workflow
	// AdHoc is a best-effort job with no deadline.
	AdHoc = workflow.AdHoc
)

// NewWorkflow returns an empty workflow with the given identity, submit
// time and deadline (both offsets from the simulation epoch).
func NewWorkflow(id string, submit, deadlineAt time.Duration) *Workflow {
	return workflow.New(id, submit, deadlineAt)
}

// Deadline decomposition (paper §IV).
type (
	// DecomposeOptions tunes Decompose.
	DecomposeOptions = deadline.Options
	// Decomposition is the result of Decompose.
	Decomposition = deadline.Result
	// Window is one job's scheduling window.
	Window = deadline.Window
)

// Decompose splits a workflow's deadline into per-job windows using the
// paper's resource-demand-proportional strategy (with critical-path
// fallback).
func Decompose(w *Workflow, opts DecomposeOptions) (*Decomposition, error) {
	return deadline.Decompose(w, opts)
}

// Scheduling.
type (
	// Scheduler is the per-slot scheduling interface.
	Scheduler = sched.Scheduler
	// SchedulerConfig tunes the FlowTime scheduler.
	SchedulerConfig = core.Config
	// JobState is the scheduler-visible state of a live job.
	JobState = sched.JobState
	// AssignContext is the input to one scheduling decision.
	AssignContext = sched.AssignContext
	// ClusterView exposes the cluster to schedulers.
	ClusterView = sched.ClusterView
	// History holds prior-run observations for the Morpheus baseline.
	History = sched.History
)

// DefaultSchedulerConfig returns the paper's FlowTime settings (60s
// deadline slack).
func DefaultSchedulerConfig() SchedulerConfig {
	return core.DefaultConfig()
}

// NewScheduler returns the FlowTime scheduler (paper §V: deadline
// decomposition + lexicographic min-max co-scheduling, the paper's LP
// solved as a parametric max-flow).
func NewScheduler(cfg SchedulerConfig) Scheduler {
	return core.New(cfg)
}

// Baseline schedulers from the paper's evaluation.
var (
	// NewFIFO returns the FIFO baseline.
	NewFIFO = func() Scheduler { return sched.NewFIFO() }
	// NewFair returns the max-min fair baseline.
	NewFair = func() Scheduler { return sched.NewFair() }
	// NewEDF returns the earliest-deadline-first baseline.
	NewEDF = func() Scheduler { return sched.NewEDF() }
	// NewCORA returns the utility min-max baseline (Huang et al. 2015).
	NewCORA = func() Scheduler { return sched.NewCORA() }
)

// NewMorpheus returns the history-inference baseline (Jyothi et al. 2016).
func NewMorpheus(history History) Scheduler {
	return sched.NewMorpheus(history)
}

// Simulation.
type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of a run.
	SimResult = sim.Result
	// JobOutcome is one deadline job's result.
	JobOutcome = sim.JobOutcome
	// WorkflowOutcome is one workflow's result.
	WorkflowOutcome = sim.WorkflowOutcome
	// AdHocOutcome is one ad-hoc job's result.
	AdHocOutcome = sim.AdHocOutcome
	// Summary condenses a run into the paper's metrics.
	Summary = metrics.Summary
)

// ConstantCapacity returns a capacity function for a fixed-size cluster.
func ConstantCapacity(c Resources) func(slot int64) Resources {
	return func(int64) Resources { return c }
}

// Simulate executes a workload under a scheduler.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return sim.Run(cfg)
}

// Summarize computes deadline-miss and turnaround metrics from a run.
func Summarize(algorithm string, res *SimResult) Summary {
	return metrics.Summarize(algorithm, res)
}
