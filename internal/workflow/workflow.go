// Package workflow models FlowTime's workloads: recurring deadline-aware
// workflows — DAGs of inter-dependent data-analytics jobs with known
// estimates (paper §II-A) — and best-effort ad-hoc jobs whose size is
// unknown at submission.
//
// Times are expressed as time.Duration offsets from the start of the
// scheduling horizon (the simulator's epoch), and durations as plain
// time.Duration, following the house style of using the time package for
// all time handling.
package workflow

import (
	"errors"
	"fmt"
	"time"

	"flowtime/internal/graph"
	"flowtime/internal/resource"
)

// Job is one node of a workflow DAG: a data-processing job made of
// identical parallel tasks (the Hadoop/Spark container model the paper
// assumes). All fields are *estimates* derived from prior runs of the
// recurring workflow; ActualTaskDuration optionally records the true
// duration materialized at run time, used by the estimation-error
// experiments (paper §III-A, Fig. 5).
type Job struct {
	// Name identifies the job within its workflow (for reports only).
	Name string
	// Tasks is the number of parallel tasks; must be >= 1.
	Tasks int
	// TaskDuration is the estimated runtime of one task; must be > 0.
	TaskDuration time.Duration
	// TaskDemand is the per-task resource demand; must be non-zero.
	TaskDemand resource.Vector
	// ActualTaskDuration, when non-zero, is the true task duration the
	// simulator materializes (it may differ from the estimate). Zero means
	// "exactly as estimated".
	ActualTaskDuration time.Duration
}

// Validate checks the job's invariants.
func (j Job) Validate() error {
	if j.Tasks < 1 {
		return fmt.Errorf("workflow: job %q: tasks = %d, want >= 1", j.Name, j.Tasks)
	}
	if j.TaskDuration <= 0 {
		return fmt.Errorf("workflow: job %q: task duration = %v, want > 0", j.Name, j.TaskDuration)
	}
	if j.ActualTaskDuration < 0 {
		return fmt.Errorf("workflow: job %q: actual task duration = %v, want >= 0", j.Name, j.ActualTaskDuration)
	}
	if err := j.TaskDemand.Validate(); err != nil {
		return fmt.Errorf("workflow: job %q: %w", j.Name, err)
	}
	if j.TaskDemand.IsZero() {
		return fmt.Errorf("workflow: job %q: zero task demand", j.Name)
	}
	return nil
}

// EffectiveTaskDuration returns the duration the job's tasks actually take:
// ActualTaskDuration when set, the estimate otherwise.
func (j Job) EffectiveTaskDuration() time.Duration {
	if j.ActualTaskDuration > 0 {
		return j.ActualTaskDuration
	}
	return j.TaskDuration
}

// DurationSlots returns the estimated task duration in whole slots
// (rounded up, minimum 1).
func (j Job) DurationSlots(slot time.Duration) int64 {
	return durationSlots(j.TaskDuration, slot)
}

// ParallelCap returns the job's per-slot allocation ceiling: all tasks
// running at once.
func (j Job) ParallelCap() resource.Vector {
	return j.TaskDemand.Scale(int64(j.Tasks))
}

// Volume returns the job's estimated work volume in resource-slot units:
// tasks x per-task demand x task duration in slots. This is the s_i^r of
// the paper's formulation (Table I).
func (j Job) Volume(slot time.Duration) resource.Vector {
	return j.ParallelCap().Scale(j.DurationSlots(slot))
}

// MinRuntimeSlots returns the minimum number of slots the job needs when
// the per-slot allocation is capped by both its own parallelism and the
// cluster capacity: max over resources of ceil(volume / min(parallel cap,
// cluster cap)).
func (j Job) MinRuntimeSlots(slot time.Duration, clusterCap resource.Vector) int64 {
	vol := j.Volume(slot)
	perSlot := j.ParallelCap().Min(clusterCap)
	minSlots := int64(1)
	for _, k := range resource.Kinds() {
		c := perSlot.Get(k)
		v := vol.Get(k)
		if v == 0 {
			continue
		}
		if c <= 0 {
			return -1 // cannot run at all on this cluster
		}
		if s := (v + c - 1) / c; s > minSlots {
			minSlots = s
		}
	}
	return minSlots
}

func durationSlots(d, slot time.Duration) int64 {
	if slot <= 0 {
		return 1
	}
	s := int64((d + slot - 1) / slot)
	if s < 1 {
		s = 1
	}
	return s
}

// Workflow is a deadline-aware DAG of jobs: W_i = {Q_i, ws_i, wd_i, P_i} in
// the paper's notation. Construct with New, then AddJob/AddDep, then
// Validate (or Finalize).
type Workflow struct {
	// ID identifies the workflow (unique within one scheduling run).
	ID string
	// Submit is the workflow's start time ws_i, as an offset from the
	// simulation epoch.
	Submit time.Duration
	// Deadline is the workflow's absolute deadline wd_i, as an offset from
	// the simulation epoch.
	Deadline time.Duration

	jobs []Job
	dag  *graph.DAG
	deps [][2]int
}

// New returns an empty workflow with the given identity and window.
func New(id string, submit, deadline time.Duration) *Workflow {
	return &Workflow{ID: id, Submit: submit, Deadline: deadline}
}

// AddJob appends a job and returns its node index within the DAG.
func (w *Workflow) AddJob(j Job) int {
	w.jobs = append(w.jobs, j)
	w.dag = nil // invalidate
	return len(w.jobs) - 1
}

// AddDep declares that job `to` depends on job `from` (from must finish
// before to may start). Indices are validated at Validate time.
func (w *Workflow) AddDep(from, to int) {
	w.deps = append(w.deps, [2]int{from, to})
	w.dag = nil
}

// NumJobs returns the number of jobs added.
func (w *Workflow) NumJobs() int { return len(w.jobs) }

// Job returns the job at node index i.
func (w *Workflow) Job(i int) Job { return w.jobs[i] }

// SetActualTaskDuration overrides the materialized duration of job i,
// modelling estimation error for robustness experiments.
func (w *Workflow) SetActualTaskDuration(i int, d time.Duration) error {
	if i < 0 || i >= len(w.jobs) {
		return fmt.Errorf("workflow %s: job index %d out of range", w.ID, i)
	}
	if d <= 0 {
		return fmt.Errorf("workflow %s: actual duration %v, want > 0", w.ID, d)
	}
	w.jobs[i].ActualTaskDuration = d
	return nil
}

// SetEstimatedTaskDuration overwrites the estimate of job i (used when an
// estimator refines estimates from prior-run history).
func (w *Workflow) SetEstimatedTaskDuration(i int, d time.Duration) error {
	if i < 0 || i >= len(w.jobs) {
		return fmt.Errorf("workflow %s: job index %d out of range", w.ID, i)
	}
	if d <= 0 {
		return fmt.Errorf("workflow %s: estimated duration %v, want > 0", w.ID, d)
	}
	w.jobs[i].TaskDuration = d
	return nil
}

// Validate checks the workflow invariants and materializes the DAG.
func (w *Workflow) Validate() error {
	if w.ID == "" {
		return errors.New("workflow: empty ID")
	}
	if len(w.jobs) == 0 {
		return fmt.Errorf("workflow %s: no jobs", w.ID)
	}
	if w.Submit < 0 {
		return fmt.Errorf("workflow %s: negative submit time %v", w.ID, w.Submit)
	}
	if w.Deadline <= w.Submit {
		return fmt.Errorf("workflow %s: deadline %v not after submit %v", w.ID, w.Deadline, w.Submit)
	}
	for _, j := range w.jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("workflow %s: %w", w.ID, err)
		}
	}
	dag := graph.NewDAG(len(w.jobs))
	for _, d := range w.deps {
		if err := dag.AddEdge(d[0], d[1]); err != nil {
			return fmt.Errorf("workflow %s: %w", w.ID, err)
		}
	}
	if dag.HasCycle() {
		return fmt.Errorf("workflow %s: %w", w.ID, graph.ErrCycle)
	}
	w.dag = dag
	return nil
}

// Clone returns a deep copy of the workflow. Schedulers and simulators
// never share state through a clone, which is how the experiment harness
// hands identical workloads to competing algorithms.
func (w *Workflow) Clone() *Workflow {
	c := New(w.ID, w.Submit, w.Deadline)
	c.jobs = append([]Job(nil), w.jobs...)
	c.deps = append([][2]int(nil), w.deps...)
	return c
}

// DAG returns the dependency graph, materializing it if needed. It panics
// if the workflow is invalid; call Validate first.
func (w *Workflow) DAG() *graph.DAG {
	if w.dag == nil {
		if err := w.Validate(); err != nil {
			panic(fmt.Sprintf("workflow: DAG on invalid workflow: %v", err))
		}
	}
	return w.dag
}

// AdHoc is a best-effort job: no deadline, size unknown to the scheduler at
// submission (paper §II-A). The size fields are ground truth visible only
// to the simulator.
type AdHoc struct {
	// ID identifies the job.
	ID string
	// Submit is the submission time, offset from the simulation epoch.
	Submit time.Duration
	// Tasks, TaskDuration, TaskDemand describe the true size.
	Tasks        int
	TaskDuration time.Duration
	TaskDemand   resource.Vector
}

// Validate checks the ad-hoc job invariants.
func (a AdHoc) Validate() error {
	if a.ID == "" {
		return errors.New("workflow: ad-hoc job with empty ID")
	}
	if a.Submit < 0 {
		return fmt.Errorf("workflow: ad-hoc %s: negative submit %v", a.ID, a.Submit)
	}
	j := Job{Name: a.ID, Tasks: a.Tasks, TaskDuration: a.TaskDuration, TaskDemand: a.TaskDemand}
	return j.Validate()
}

// Volume returns the true work volume of the ad-hoc job.
func (a AdHoc) Volume(slot time.Duration) resource.Vector {
	j := Job{Tasks: a.Tasks, TaskDuration: a.TaskDuration, TaskDemand: a.TaskDemand}
	return j.Volume(slot)
}

// ParallelCap returns the per-slot ceiling of the ad-hoc job.
func (a AdHoc) ParallelCap() resource.Vector {
	return a.TaskDemand.Scale(int64(a.Tasks))
}
