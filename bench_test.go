package flowtime_test

// Benchmark harness: one benchmark per paper figure plus the extension
// experiments, each regenerating the corresponding rows/series via
// internal/experiments (the same code path as cmd/ftbench). Reported
// custom metrics carry the figure's headline numbers so `go test -bench`
// output doubles as a compact reproduction table. See DESIGN.md §1.3 for
// the experiment index and EXPERIMENTS.md for recorded numbers.

import (
	"testing"

	"flowtime/internal/experiments"
)

// BenchmarkFig1Motivation regenerates the paper's Fig. 1: EDF versus
// FlowTime on the motivating example. Metrics: average ad-hoc turnaround
// (seconds) per scheduler.
func BenchmarkFig1Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sums[0].AvgTurnaround.Seconds(), "edf-turnaround-s")
		b.ReportMetric(sums[1].AvgTurnaround.Seconds(), "flowtime-turnaround-s")
	}
}

// BenchmarkFig4 regenerates Figs. 4a-c (all five algorithms). Metrics:
// FlowTime's miss count (paper: 0) and its average ad-hoc turnaround.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.RunFig4(experiments.Fig4Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sums {
			switch s.Algorithm {
			case "FlowTime":
				b.ReportMetric(float64(s.JobsMissed), "flowtime-missed")
				b.ReportMetric(s.AvgTurnaround.Seconds(), "flowtime-turnaround-s")
			case "EDF":
				b.ReportMetric(s.AvgTurnaround.Seconds(), "edf-turnaround-s")
			}
		}
	}
}

// BenchmarkFig5Slack regenerates Figs. 5a-c (deadline-slack ablation).
// Metrics: miss counts with and without slack (paper: 0 vs 5).
func BenchmarkFig5Slack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WithSlack.JobsMissed), "missed-with-slack")
		b.ReportMetric(float64(res.NoSlack.JobsMissed), "missed-no-slack")
	}
}

// BenchmarkFig6Decomposition regenerates Fig. 6's largest point: deadline
// decomposition of a 200-node / ~6000-edge workflow (paper: <= 3s).
func BenchmarkFig6Decomposition(b *testing.B) {
	points, err := experiments.RunFig6([]int{200}, []float64{0.3}, 0, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(points[0].Edges), "edges")
	b.ReportMetric(float64(points[0].Runtime.Microseconds()), "decompose-us")
}

// BenchmarkFig7SolverLatency regenerates Fig. 7: one full FlowTime LP
// solve (shortfall check + lexicographic min-max + integral repair) per
// iteration, per job count, in the paper's 500-core / 1 TB / 100-slot
// setting.
func BenchmarkFig7SolverLatency(b *testing.B) {
	for _, n := range []int{10, 50, 100, 200} {
		b.Run(benchName("jobs", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig7([]int{n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtEstimationError regenerates extension A (robustness):
// FlowTime miss counts across an estimation-error sweep, slack on/off.
func BenchmarkExtEstimationError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunExtA([]float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].MissedWithSlack), "missed-with-slack")
		b.ReportMetric(float64(points[0].MissedNoSlack), "missed-no-slack")
	}
}

// BenchmarkExtDecompositionAblation regenerates extension B: resource-
// demand versus critical-path decomposition on wide fan-outs.
func BenchmarkExtDecompositionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunExtB([]int{16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].MissedResource), "missed-resource-demand")
		b.ReportMetric(float64(points[0].MissedCritical), "missed-critical-path")
	}
}

// BenchmarkExtTraceReplay regenerates extension C: the loose-deadline
// trace replay, FlowTime only (the full lineup runs in ftbench).
func BenchmarkExtTraceReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sums, err := experiments.RunExtC([]string{"FlowTime"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sums[0].JobsMissed), "flowtime-missed")
		b.ReportMetric(sums[0].AvgTurnaround.Seconds(), "flowtime-turnaround-s")
	}
}

func benchName(key string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return key + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return key + "=" + string(buf[i:])
}
