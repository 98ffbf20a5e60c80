package workflow

import (
	"strings"
	"testing"
	"time"

	"flowtime/internal/resource"
)

func validJob() Job {
	return Job{
		Name:         "map",
		Tasks:        10,
		TaskDuration: 30 * time.Second,
		TaskDemand:   resource.New(1, 1024),
	}
}

func TestJobValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Job)
		wantErr string
	}{
		{"valid", func(*Job) {}, ""},
		{"zero tasks", func(j *Job) { j.Tasks = 0 }, "tasks"},
		{"zero duration", func(j *Job) { j.TaskDuration = 0 }, "duration"},
		{"negative actual", func(j *Job) { j.ActualTaskDuration = -time.Second }, "actual"},
		{"negative demand", func(j *Job) { j.TaskDemand = resource.New(-1, 10) }, "negative"},
		{"zero demand", func(j *Job) { j.TaskDemand = resource.Vector{} }, "zero task demand"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j := validJob()
			tt.mutate(&j)
			err := j.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Errorf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Validate = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestEffectiveTaskDuration(t *testing.T) {
	j := validJob()
	if got := j.EffectiveTaskDuration(); got != 30*time.Second {
		t.Errorf("EffectiveTaskDuration = %v, want 30s (estimate)", got)
	}
	j.ActualTaskDuration = 45 * time.Second
	if got := j.EffectiveTaskDuration(); got != 45*time.Second {
		t.Errorf("EffectiveTaskDuration = %v, want 45s (actual)", got)
	}
}

func TestJobSlotMath(t *testing.T) {
	slot := 10 * time.Second
	j := validJob() // 10 tasks x 30s x <1 core, 1 GiB>

	if got := j.DurationSlots(slot); got != 3 {
		t.Errorf("DurationSlots = %d, want 3", got)
	}
	if got, want := j.ParallelCap(), resource.New(10, 10240); got != want {
		t.Errorf("ParallelCap = %v, want %v", got, want)
	}
	if got, want := j.Volume(slot), resource.New(30, 30720); got != want {
		t.Errorf("Volume = %v, want %v", got, want)
	}

	// Rounding up: 25s tasks at 10s slots -> 3 slots.
	j.TaskDuration = 25 * time.Second
	if got := j.DurationSlots(slot); got != 3 {
		t.Errorf("DurationSlots(25s) = %d, want 3", got)
	}
}

func TestMinRuntimeSlots(t *testing.T) {
	slot := 10 * time.Second
	j := validJob() // volume <30, 30720>, parallel cap <10, 10240>

	// Unconstrained cluster: bounded by own parallelism -> 3 slots.
	if got := j.MinRuntimeSlots(slot, resource.New(1000, 1<<20)); got != 3 {
		t.Errorf("MinRuntimeSlots(unconstrained) = %d, want 3", got)
	}
	// Cluster with 5 cores: ceil(30/5) = 6 slots.
	if got := j.MinRuntimeSlots(slot, resource.New(5, 1<<20)); got != 6 {
		t.Errorf("MinRuntimeSlots(5 cores) = %d, want 6", got)
	}
	// Cluster that cannot host the job at all.
	if got := j.MinRuntimeSlots(slot, resource.New(0, 1<<20)); got != -1 {
		t.Errorf("MinRuntimeSlots(0 cores) = %d, want -1", got)
	}
}

func buildDiamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("wf-1", 0, 10*time.Minute)
	a := w.AddJob(validJob())
	b := w.AddJob(validJob())
	c := w.AddJob(validJob())
	d := w.AddJob(validJob())
	w.AddDep(a, b)
	w.AddDep(a, c)
	w.AddDep(b, d)
	w.AddDep(c, d)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return w
}

func TestWorkflowValidate(t *testing.T) {
	t.Run("valid diamond", func(t *testing.T) { buildDiamond(t) })

	t.Run("empty id", func(t *testing.T) {
		w := New("", 0, time.Minute)
		w.AddJob(validJob())
		if err := w.Validate(); err == nil {
			t.Error("want error for empty ID")
		}
	})
	t.Run("no jobs", func(t *testing.T) {
		w := New("w", 0, time.Minute)
		if err := w.Validate(); err == nil {
			t.Error("want error for no jobs")
		}
	})
	t.Run("deadline before submit", func(t *testing.T) {
		w := New("w", time.Minute, time.Second)
		w.AddJob(validJob())
		if err := w.Validate(); err == nil {
			t.Error("want error for deadline <= submit")
		}
	})
	t.Run("negative submit", func(t *testing.T) {
		w := New("w", -time.Second, time.Minute)
		w.AddJob(validJob())
		if err := w.Validate(); err == nil {
			t.Error("want error for negative submit")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		w := New("w", 0, time.Minute)
		a := w.AddJob(validJob())
		b := w.AddJob(validJob())
		w.AddDep(a, b)
		w.AddDep(b, a)
		if err := w.Validate(); err == nil {
			t.Error("want error for cyclic dependencies")
		}
	})
	t.Run("bad dep index", func(t *testing.T) {
		w := New("w", 0, time.Minute)
		a := w.AddJob(validJob())
		w.AddDep(a, 5)
		if err := w.Validate(); err == nil {
			t.Error("want error for out-of-range dependency")
		}
	})
}

func TestWorkflowAccessors(t *testing.T) {
	w := buildDiamond(t)
	if w.NumJobs() != 4 {
		t.Errorf("NumJobs = %d, want 4", w.NumJobs())
	}
	dag := w.DAG()
	if dag.NumNodes() != 4 || dag.NumEdges() != 4 {
		t.Errorf("DAG = %d nodes, %d edges; want 4, 4", dag.NumNodes(), dag.NumEdges())
	}
}

func TestSetActualTaskDuration(t *testing.T) {
	w := buildDiamond(t)
	if err := w.SetActualTaskDuration(1, 77*time.Second); err != nil {
		t.Fatalf("SetActualTaskDuration: %v", err)
	}
	if got := w.Job(1).EffectiveTaskDuration(); got != 77*time.Second {
		t.Errorf("EffectiveTaskDuration = %v, want 77s", got)
	}
	if err := w.SetActualTaskDuration(9, time.Second); err == nil {
		t.Error("want error for out-of-range index")
	}
	if err := w.SetActualTaskDuration(0, 0); err == nil {
		t.Error("want error for zero duration")
	}
}

func TestAdHocValidateAndVolume(t *testing.T) {
	a := AdHoc{
		ID:           "adhoc-1",
		Submit:       5 * time.Second,
		Tasks:        4,
		TaskDuration: 20 * time.Second,
		TaskDemand:   resource.New(2, 512),
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := a.Volume(10*time.Second), resource.New(16, 4096); got != want {
		t.Errorf("Volume = %v, want %v", got, want)
	}
	if got, want := a.ParallelCap(), resource.New(8, 2048); got != want {
		t.Errorf("ParallelCap = %v, want %v", got, want)
	}

	a.ID = ""
	if err := a.Validate(); err == nil {
		t.Error("want error for empty ID")
	}
	a.ID = "x"
	a.Submit = -time.Second
	if err := a.Validate(); err == nil {
		t.Error("want error for negative submit")
	}
}

func TestClone(t *testing.T) {
	w := buildDiamond(t)
	c := w.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if c.ID != w.ID || c.Submit != w.Submit || c.Deadline != w.Deadline {
		t.Error("clone header differs")
	}
	if c.NumJobs() != w.NumJobs() || c.DAG().NumEdges() != w.DAG().NumEdges() {
		t.Error("clone structure differs")
	}
	// Mutating the clone must not leak into the original.
	if err := c.SetActualTaskDuration(0, 123*time.Second); err != nil {
		t.Fatal(err)
	}
	if w.Job(0).ActualTaskDuration == 123*time.Second {
		t.Error("clone mutation leaked into original")
	}
	c.AddDep(0, 3)
	if w.DAG().NumEdges() != 4 {
		t.Error("clone dep leaked into original")
	}
}
