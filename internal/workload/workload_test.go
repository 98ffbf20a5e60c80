package workload

import (
	"math/rand"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workflow"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestShapeString(t *testing.T) {
	shapes := map[Shape]string{
		ShapeChain: "chain", ShapeFanOut: "fanout", ShapeDiamond: "diamond",
		ShapeMontage: "montage", ShapeEpigenomics: "epigenomics", ShapeRandom: "random",
		ShapeCyberShake: "cybershake", ShapeSipht: "sipht",
		Shape(0): "shape(0)",
	}
	for s, want := range shapes {
		if got := s.String(); got != want {
			t.Errorf("Shape(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestGenerateWorkflowAllShapes(t *testing.T) {
	r := rng()
	for _, shape := range []Shape{ShapeChain, ShapeFanOut, ShapeDiamond, ShapeMontage, ShapeEpigenomics, ShapeRandom, ShapeCyberShake, ShapeSipht} {
		t.Run(shape.String(), func(t *testing.T) {
			for _, jobs := range []int{6, 12, 18, 30} {
				w, err := GenerateWorkflow(r, WorkflowSpec{
					ID:             shape.String(),
					Shape:          shape,
					Jobs:           jobs,
					Submit:         time.Minute,
					DeadlineFactor: 2,
				})
				if err != nil {
					t.Fatalf("GenerateWorkflow(%v, %d): %v", shape, jobs, err)
				}
				if w.NumJobs() != jobs {
					t.Errorf("NumJobs = %d, want %d", w.NumJobs(), jobs)
				}
				if err := w.Validate(); err != nil {
					t.Errorf("generated workflow invalid: %v", err)
				}
				if w.Deadline <= w.Submit {
					t.Errorf("deadline %v not after submit %v", w.Deadline, w.Submit)
				}
			}
		})
	}
}

func TestGenerateWorkflowValidation(t *testing.T) {
	r := rng()
	if _, err := GenerateWorkflow(r, WorkflowSpec{ID: "x", Shape: ShapeChain, Jobs: 0, DeadlineFactor: 1}); err == nil {
		t.Error("zero jobs accepted")
	}
	if _, err := GenerateWorkflow(r, WorkflowSpec{ID: "x", Shape: ShapeChain, Jobs: 3, DeadlineFactor: 0}); err == nil {
		t.Error("zero deadline factor accepted")
	}
	if _, err := GenerateWorkflow(r, WorkflowSpec{ID: "x", Shape: ShapeFanOut, Jobs: 2, DeadlineFactor: 1}); err == nil {
		t.Error("fanout with 2 jobs accepted")
	}
	if _, err := GenerateWorkflow(r, WorkflowSpec{ID: "x", Shape: Shape(99), Jobs: 3, DeadlineFactor: 1}); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestGenerateWorkflowDeterministic(t *testing.T) {
	spec := WorkflowSpec{ID: "d", Shape: ShapeRandom, Jobs: 15, DeadlineFactor: 3}
	w1, err := GenerateWorkflow(rand.New(rand.NewSource(7)), spec)
	if err != nil {
		t.Fatalf("GenerateWorkflow: %v", err)
	}
	w2, err := GenerateWorkflow(rand.New(rand.NewSource(7)), spec)
	if err != nil {
		t.Fatalf("GenerateWorkflow: %v", err)
	}
	if w1.Deadline != w2.Deadline || w1.NumJobs() != w2.NumJobs() {
		t.Error("same seed produced different workflows")
	}
	for i := 0; i < w1.NumJobs(); i++ {
		if w1.Job(i) != w2.Job(i) {
			t.Fatalf("job %d differs across same-seed runs", i)
		}
	}
}

func TestGenerateAdHoc(t *testing.T) {
	jobs, err := GenerateAdHoc(rng(), AdHocSpec{
		Count:            50,
		MeanInterarrival: 30 * time.Second,
		MinTasks:         1, MaxTasks: 8,
		MinTaskDur: 10 * time.Second, MaxTaskDur: 60 * time.Second,
		Demand: resource.New(1, 512),
	})
	if err != nil {
		t.Fatalf("GenerateAdHoc: %v", err)
	}
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs, want 50", len(jobs))
	}
	var prev time.Duration
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if j.Submit < prev {
			t.Fatalf("job %d submits at %v before previous %v", i, j.Submit, prev)
		}
		prev = j.Submit
	}

	if _, err := GenerateAdHoc(rng(), AdHocSpec{Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := GenerateAdHoc(rng(), AdHocSpec{Count: 1}); err == nil {
		t.Error("zero interarrival accepted")
	}
	empty, err := GenerateAdHoc(rng(), AdHocSpec{Count: 0})
	if err != nil || len(empty) != 0 {
		t.Errorf("empty spec: %v, %v", empty, err)
	}
}

func TestInjectEstimationError(t *testing.T) {
	r := rng()
	w, err := GenerateWorkflow(r, WorkflowSpec{ID: "e", Shape: ShapeChain, Jobs: 10, DeadlineFactor: 2})
	if err != nil {
		t.Fatalf("GenerateWorkflow: %v", err)
	}
	if err := InjectEstimationError(r, w, 0.2, 0.2); err != nil {
		t.Fatalf("InjectEstimationError: %v", err)
	}
	for i := 0; i < w.NumJobs(); i++ {
		j := w.Job(i)
		ratio := float64(j.EffectiveTaskDuration()) / float64(j.TaskDuration)
		if ratio < 1.15 || ratio > 1.25 {
			t.Errorf("job %d ratio = %g, want ~1.2", i, ratio)
		}
	}
	if err := InjectEstimationError(r, w, 0.5, -0.5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSynthesizeHistory(t *testing.T) {
	r := rng()
	w, err := GenerateWorkflow(r, WorkflowSpec{ID: "h", Shape: ShapeDiamond, Jobs: 8, DeadlineFactor: 2})
	if err != nil {
		t.Fatalf("GenerateWorkflow: %v", err)
	}
	h, err := SynthesizeHistory(r, []*workflow.Workflow{w}, 5, 0.1)
	if err != nil {
		t.Fatalf("SynthesizeHistory: %v", err)
	}
	runs := h["h"]
	if len(runs) != 5 {
		t.Fatalf("got %d runs, want 5", len(runs))
	}
	dag := w.DAG()
	for ri, run := range runs {
		if len(run.Spans) != w.NumJobs() {
			t.Fatalf("run %d has %d spans, want %d", ri, len(run.Spans), w.NumJobs())
		}
		for v := 0; v < w.NumJobs(); v++ {
			span := run.Spans[w.Job(v).Name]
			if span.End <= span.Start {
				t.Fatalf("run %d job %d: empty span %+v", ri, v, span)
			}
			for _, p := range dag.Predecessors(v) {
				pspan := run.Spans[w.Job(p).Name]
				if span.Start < pspan.End {
					t.Fatalf("run %d: job %d starts %v before pred %d ends %v",
						ri, v, span.Start, p, pspan.End)
				}
			}
		}
	}
}

func TestRandomDAGWorkflow(t *testing.T) {
	r := rng()
	for _, tc := range []struct{ nodes, edges int }{{10, 20}, {50, 300}, {200, 6000}} {
		w, err := RandomDAGWorkflow(r, "r", tc.nodes, tc.edges, 24*time.Hour)
		if err != nil {
			t.Fatalf("RandomDAGWorkflow(%d, %d): %v", tc.nodes, tc.edges, err)
		}
		if w.NumJobs() != tc.nodes {
			t.Errorf("nodes = %d, want %d", w.NumJobs(), tc.nodes)
		}
		maxEdges := tc.nodes * (tc.nodes - 1) / 2
		wantEdges := tc.edges
		if wantEdges > maxEdges {
			wantEdges = maxEdges
		}
		if got := w.DAG().NumEdges(); got != wantEdges {
			t.Errorf("edges = %d, want %d", got, wantEdges)
		}
	}
	if _, err := RandomDAGWorkflow(r, "r", 0, 0, time.Hour); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestFig4Workload(t *testing.T) {
	wfs, adhoc, err := Fig4Workload(DefaultFig4Spec())
	if err != nil {
		t.Fatalf("Fig4Workload: %v", err)
	}
	if len(wfs) != 5 {
		t.Fatalf("got %d workflows, want 5", len(wfs))
	}
	totalJobs := 0
	for _, w := range wfs {
		totalJobs += w.NumJobs()
		if err := w.Validate(); err != nil {
			t.Errorf("workflow %s invalid: %v", w.ID, err)
		}
	}
	if totalJobs != 90 {
		t.Errorf("total deadline jobs = %d, want 90 (5 x 18, per the paper)", totalJobs)
	}
	if len(adhoc) != DefaultFig4Spec().AdHocCount {
		t.Errorf("ad-hoc = %d, want %d", len(adhoc), DefaultFig4Spec().AdHocCount)
	}
}

func TestPUMATemplatesSane(t *testing.T) {
	for _, tpl := range PUMATemplates() {
		if tpl.Name == "" || tpl.MinTasks < 1 || tpl.MaxTasks < tpl.MinTasks {
			t.Errorf("template %+v has invalid task bounds", tpl)
		}
		if tpl.MinTaskDur <= 0 || tpl.MaxTaskDur < tpl.MinTaskDur {
			t.Errorf("template %+v has invalid durations", tpl)
		}
		if tpl.Demand.IsZero() {
			t.Errorf("template %+v has zero demand", tpl)
		}
	}
}
