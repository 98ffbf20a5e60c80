package estimate

import (
	"sync"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
)

func obs(d time.Duration) Observation {
	return Observation{WorkflowID: "wf", JobName: "j", TaskDuration: d}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("maxRuns 0 accepted")
	}
}

func TestObservationValidate(t *testing.T) {
	if err := (Observation{JobName: "j", TaskDuration: time.Second}).Validate(); err == nil {
		t.Error("missing workflow ID accepted")
	}
	if err := (Observation{WorkflowID: "w", JobName: "j"}).Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	if err := obs(time.Second).Validate(); err != nil {
		t.Errorf("valid observation rejected: %v", err)
	}
}

func TestEWMAOverKnownHistory(t *testing.T) {
	s, err := NewStore(100)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	for _, d := range []time.Duration{
		10 * time.Second, 20 * time.Second, 30 * time.Second,
		40 * time.Second, 100 * time.Second,
	} {
		if err := s.Record(obs(d)); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	// 10 → 13 → 18.1 → 24.67 → 0.3·100 + 0.7·24.67 = 47.269 s.
	if got, ok := s.Estimate("wf", "j"); !ok || got.Round(time.Millisecond) != 47269*time.Millisecond {
		t.Errorf("EWMA = %v, %v; want 47.269s", got, ok)
	}
	if _, ok := s.Estimate("wf", "missing"); ok {
		t.Error("estimate for unknown job reported ok")
	}
}

func TestEvictionKeepsNewest(t *testing.T) {
	s, err := NewStore(3)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 60 * time.Second} {
		if err := s.Record(obs(d)); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	if got := len(s.history[key{"wf", "j"}]); got != 3 {
		t.Fatalf("Runs = %d, want 3 (bounded)", got)
	}
	// Oldest (1s) evicted: EWMA of {2, 3, 60} = 0.3·60 + 0.7·2.3 = 19.61s.
	got, _ := s.Estimate("wf", "j")
	if got.Round(time.Millisecond) != 19610*time.Millisecond {
		t.Errorf("EWMA after eviction = %v, want 19.61s", got)
	}
}

func buildWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	w := workflow.New("wf", 0, time.Hour)
	w.AddJob(workflow.Job{Name: "a", Tasks: 2, TaskDuration: 30 * time.Second, TaskDemand: resource.New(1, 1)})
	w.AddJob(workflow.Job{Name: "b", Tasks: 2, TaskDuration: 60 * time.Second, TaskDemand: resource.New(1, 1)})
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return w
}

func TestRecordRunAndApply(t *testing.T) {
	s, err := NewStore(10)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	run := buildWorkflow(t)
	// The run actually took longer than estimated.
	if err := run.SetActualTaskDuration(0, 45*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := run.SetActualTaskDuration(1, 90*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRun(run); err != nil {
		t.Fatalf("RecordRun: %v", err)
	}

	next := buildWorkflow(t)
	updated, err := s.Apply(next)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if updated != 2 {
		t.Errorf("updated = %d, want 2", updated)
	}
	if got := next.Job(0).TaskDuration; got != 45*time.Second {
		t.Errorf("job a estimate = %v, want 45s (learned: one observation is its own EWMA)", got)
	}
	if got := next.Job(1).TaskDuration; got != 90*time.Second {
		t.Errorf("job b estimate = %v, want 90s (learned)", got)
	}

	// A workflow with unknown jobs is untouched.
	other := workflow.New("other", 0, time.Hour)
	other.AddJob(workflow.Job{Name: "x", Tasks: 1, TaskDuration: 5 * time.Second, TaskDemand: resource.New(1, 1)})
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	updated, err = s.Apply(other)
	if err != nil {
		t.Fatalf("Apply(other): %v", err)
	}
	if updated != 0 {
		t.Errorf("updated = %d, want 0 for unknown jobs", updated)
	}
}

func TestMeasureError(t *testing.T) {
	w := buildWorkflow(t)
	if err := w.SetActualTaskDuration(0, 36*time.Second); err != nil { // +20%
		t.Fatal(err)
	}
	if err := w.SetActualTaskDuration(1, 30*time.Second); err != nil { // -50%
		t.Fatal(err)
	}
	st, err := MeasureError(w)
	if err != nil {
		t.Fatalf("MeasureError: %v", err)
	}
	if st.MaxAbs < 0.49 || st.MaxAbs > 0.51 {
		t.Errorf("MaxAbs = %g, want 0.5", st.MaxAbs)
	}
	if st.MeanAbs < 0.34 || st.MeanAbs > 0.36 {
		t.Errorf("MeanAbs = %g, want 0.35", st.MeanAbs)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := NewStore(50)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := s.Record(obs(time.Duration(i+1) * time.Second)); err != nil {
					t.Error(err)
					return
				}
				s.Estimate("wf", "j")
			}
		}()
	}
	wg.Wait()
	if got := len(s.history[key{"wf", "j"}]); got != 50 {
		t.Errorf("Runs = %d, want 50 (bounded)", got)
	}
}
