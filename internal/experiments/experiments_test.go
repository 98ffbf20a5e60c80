package experiments

import (
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/workload"
)

// scaledSpec is a shrunken Fig. 4 workload (2 workflows x 8 jobs, light
// ad-hoc stream) paired with a proportionally shrunken cluster, so the
// integration tests finish in seconds while preserving the contention
// regime.
func scaledSpec() Fig4Options {
	return Fig4Options{
		Spec: workload.Fig4Spec{
			Seed:            99,
			Workflows:       2,
			JobsPerWorkflow: 8,
			DeadlineFactor:  3.5,
			AdHocCount:      10,
			AdHocMeanGap:    60 * time.Second,
		},
		Cluster: resource.New(48, 96*1024),
		Horizon: 3000,
	}
}

func TestFig1QualitativeOrdering(t *testing.T) {
	sums, err := RunFig1()
	if err != nil {
		t.Fatalf("RunFig1: %v", err)
	}
	edf, ft := sums[0], sums[1]
	if edf.Algorithm != "EDF" || ft.Algorithm != "FlowTime" {
		t.Fatalf("unexpected order: %s, %s", edf.Algorithm, ft.Algorithm)
	}
	if ft.WorkflowsMissed != 0 {
		t.Errorf("FlowTime missed the motivating workflow deadline")
	}
	// The paper's Fig. 1: EDF average 150 units vs FlowTime 100 — a 1.5x
	// improvement. Require at least 1.3x here.
	if float64(ft.AvgTurnaround)*1.3 >= float64(edf.AvgTurnaround) {
		t.Errorf("FlowTime turnaround %v not clearly better than EDF %v",
			ft.AvgTurnaround, edf.AvgTurnaround)
	}
}

func TestFig4ScaledQualitative(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	opts := scaledSpec()
	opts.Algorithms = []string{"FlowTime", "EDF", "FIFO"}
	sums, err := RunFig4(opts)
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	byName := map[string]int{}
	for i, s := range sums {
		byName[s.Algorithm] = i
	}
	ft := sums[byName["FlowTime"]]
	edf := sums[byName["EDF"]]
	fifo := sums[byName["FIFO"]]

	if ft.JobsMissed != 0 {
		t.Errorf("FlowTime missed %d deadlines, want 0 (paper Fig. 4b)", ft.JobsMissed)
	}
	if ft.WorkflowsMissed != 0 {
		t.Errorf("FlowTime missed %d workflows, want 0", ft.WorkflowsMissed)
	}
	// Ad-hoc turnaround: FlowTime must clearly beat EDF (paper: 10x) and
	// FIFO (paper: 3x); require 1.5x margins on the scaled workload.
	if float64(ft.AvgTurnaround)*1.5 >= float64(edf.AvgTurnaround) {
		t.Errorf("FlowTime turnaround %v vs EDF %v: want clear win", ft.AvgTurnaround, edf.AvgTurnaround)
	}
	if ft.AvgTurnaround >= fifo.AvgTurnaround {
		t.Errorf("FlowTime turnaround %v vs FIFO %v: want win", ft.AvgTurnaround, fifo.AvgTurnaround)
	}
	for _, s := range sums {
		if s.AdHocIncomplete != 0 {
			t.Errorf("%s left %d ad-hoc jobs incomplete", s.Algorithm, s.AdHocIncomplete)
		}
	}
}

func TestFig5ScaledSlackAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// Underestimation error; slack must not hurt and must not miss more
	// than the no-slack variant (the paper: 0 vs 5 misses).
	noSlack := time.Duration(0)
	run := func(slack *time.Duration) int {
		opts := scaledSpec()
		opts.Algorithms = []string{"FlowTime"}
		opts.ErrLo, opts.ErrHi = 0.0, 0.3
		opts.FlowTimeSlack = slack
		sums, err := RunFig4(opts)
		if err != nil {
			t.Fatalf("RunFig4: %v", err)
		}
		return sums[0].JobsMissed
	}
	with := run(nil)
	without := run(&noSlack)
	if with > without {
		t.Errorf("slack increased misses: %d with vs %d without", with, without)
	}
}

func TestFig6DecompositionScalability(t *testing.T) {
	points, err := RunFig6([]int{10, 100, 200}, []float64{0.1, 0.3}, 2, 5)
	if err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	for _, p := range points {
		// The paper's bound: <= 3 s even at 200 nodes / 6000 edges.
		if p.Runtime > 3*time.Second {
			t.Errorf("decomposition at %d nodes / %d edges took %v, paper bound 3s",
				p.Nodes, p.Edges, p.Runtime)
		}
	}
	// Runtime must grow with size overall (largest >= smallest).
	if points[len(points)-1].Runtime < points[0].Runtime/2 {
		t.Errorf("runtime did not grow with DAG size: %v vs %v",
			points[0].Runtime, points[len(points)-1].Runtime)
	}
}

func TestFig7SolverLatencyGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	points, err := RunFig7([]int{10, 50})
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if points[1].Latency < points[0].Latency {
		t.Errorf("latency at 50 jobs (%v) below 10 jobs (%v)", points[1].Latency, points[0].Latency)
	}
	if points[0].Rounds <= 0 {
		t.Error("no skyline levels recorded")
	}
}

func TestExtBDecompositionAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	points, err := RunExtB([]int{16})
	if err != nil {
		t.Fatalf("RunExtB: %v", err)
	}
	p := points[0]
	// The paper's Fig. 3 argument: critical-path decomposition starves the
	// wide parallel stage; resource-demand decomposition must do at least
	// as well, and strictly better on wide fan-outs.
	if p.MissedResource > p.MissedCritical {
		t.Errorf("resource-demand missed %d > critical-path %d", p.MissedResource, p.MissedCritical)
	}
	if p.MissedCritical == 0 {
		t.Logf("note: critical-path missed nothing at width %d (workload too loose to discriminate)", p.Width)
	}
}

func TestFig4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	opts := scaledSpec()
	opts.Algorithms = []string{"FlowTime", "Fair"}
	a, err := RunFig4(opts)
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	b, err := RunFig4(opts)
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	for i := range a {
		if a[i].JobsMissed != b[i].JobsMissed || a[i].AvgTurnaround != b[i].AvgTurnaround {
			t.Errorf("%s: runs differ: %+v vs %+v (determinism broken)",
				a[i].Algorithm, a[i], b[i])
		}
	}
}

func TestExtECapacityDip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	points, err := RunExtE([]string{"FlowTime"})
	if err != nil {
		t.Fatalf("RunExtE: %v", err)
	}
	// Losing half the cluster for 20 minutes is survivable in this
	// workload's slack; FlowTime must adapt with few misses.
	if points[0].Missed > 10 {
		t.Errorf("FlowTime missed %d jobs through the dip, want <= 10", points[0].Missed)
	}
}
