// Package estimate maintains prior-run observations for recurring
// workflows and derives task-duration estimates from them — the knowledge
// the paper assumes for deadline-aware workflows ("we have rather complete
// knowledge of each workflow ... as well as the estimated running time of
// tasks in each job", §I) and the input the decomposition and the LP rely
// on. It also quantifies estimate error, feeding the robustness
// experiments (§III-A, Fig. 5).
package estimate

import (
	"fmt"
	"math"
	"sync"
	"time"

	"flowtime/internal/workflow"
)

// Observation is one measured execution of a recurring job.
type Observation struct {
	// WorkflowID and JobName identify the recurring job.
	WorkflowID string
	JobName    string
	// TaskDuration is the observed per-task runtime.
	TaskDuration time.Duration
}

// Validate checks the observation.
func (o Observation) Validate() error {
	if o.WorkflowID == "" || o.JobName == "" {
		return fmt.Errorf("estimate: observation missing identity: %+v", o)
	}
	if o.TaskDuration <= 0 {
		return fmt.Errorf("estimate: observation %s/%s: duration %v, want > 0",
			o.WorkflowID, o.JobName, o.TaskDuration)
	}
	return nil
}

// ewmaAlpha is the smoothing factor of the estimate: an exponentially
// weighted moving average of the observations, tracking drift in
// recurring workloads.
const ewmaAlpha = 0.3

type key struct{ wf, job string }

// Store is a bounded per-job history of observations. The zero value is
// not usable; construct with NewStore. Store is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	maxRuns int
	history map[key][]time.Duration
}

// NewStore returns a store keeping at most maxRuns observations per job
// (older observations are evicted first). maxRuns must be >= 1.
func NewStore(maxRuns int) (*Store, error) {
	if maxRuns < 1 {
		return nil, fmt.Errorf("estimate: maxRuns %d, want >= 1", maxRuns)
	}
	return &Store{maxRuns: maxRuns, history: make(map[key][]time.Duration)}, nil
}

// Record appends an observation.
func (s *Store) Record(o Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	k := key{o.WorkflowID, o.JobName}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := append(s.history[k], o.TaskDuration)
	if len(h) > s.maxRuns {
		h = h[len(h)-s.maxRuns:]
	}
	s.history[k] = h
	return nil
}

// RecordRun records every job of a finished workflow run, using each job's
// effective (actual) task duration.
func (s *Store) RecordRun(w *workflow.Workflow) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	for i := 0; i < w.NumJobs(); i++ {
		j := w.Job(i)
		if err := s.Record(Observation{
			WorkflowID:   w.ID,
			JobName:      j.Name,
			TaskDuration: j.EffectiveTaskDuration(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Estimate derives a task-duration estimate, the EWMA of the job's
// observations oldest first; ok is false with no history.
func (s *Store) Estimate(workflowID, jobName string) (est time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.history[key{workflowID, jobName}]
	if len(h) == 0 {
		return 0, false
	}
	e := float64(h[0])
	for _, d := range h[1:] {
		e = ewmaAlpha*float64(d) + (1-ewmaAlpha)*e
	}
	return time.Duration(e), true
}

// Apply overwrites each job's TaskDuration estimate in w from the store
// (jobs without history keep their current estimate). Returns how many
// jobs were updated. Estimates are rounded up to whole seconds — the
// granularity of the trace format.
func (s *Store) Apply(w *workflow.Workflow) (int, error) {
	if err := w.Validate(); err != nil {
		return 0, fmt.Errorf("estimate: %w", err)
	}
	updated := 0
	for i := 0; i < w.NumJobs(); i++ {
		j := w.Job(i)
		est, ok := s.Estimate(w.ID, j.Name)
		if !ok {
			continue
		}
		est = est.Round(time.Second)
		if est <= 0 {
			est = time.Second
		}
		if err := w.SetEstimatedTaskDuration(i, est); err != nil {
			return updated, fmt.Errorf("estimate: %w", err)
		}
		updated++
	}
	return updated, nil
}

// ErrorStats quantifies estimate accuracy for a workflow whose actual
// durations are known: the mean and max of |actual-estimate|/estimate.
type ErrorStats struct {
	MeanAbs float64
	MaxAbs  float64
}

// MeasureError compares each job's estimate to its actual duration.
func MeasureError(w *workflow.Workflow) (ErrorStats, error) {
	if err := w.Validate(); err != nil {
		return ErrorStats{}, fmt.Errorf("estimate: %w", err)
	}
	var st ErrorStats
	n := 0
	for i := 0; i < w.NumJobs(); i++ {
		j := w.Job(i)
		if j.TaskDuration <= 0 {
			continue
		}
		rel := math.Abs(float64(j.EffectiveTaskDuration()-j.TaskDuration)) / float64(j.TaskDuration)
		st.MeanAbs += rel
		if rel > st.MaxAbs {
			st.MaxAbs = rel
		}
		n++
	}
	if n > 0 {
		st.MeanAbs /= float64(n)
	}
	return st, nil
}
