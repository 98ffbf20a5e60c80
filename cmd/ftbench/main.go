// Command ftbench regenerates the paper's evaluation figures (and this
// reproduction's extension experiments) and prints the same rows/series
// the paper reports. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured numbers.
//
// Usage:
//
//	ftbench -fig 1        # motivating example (Fig. 1)
//	ftbench -fig 4        # deadline misses + ad-hoc turnaround (Figs. 4a-c)
//	ftbench -fig 5        # deadline-slack ablation (Figs. 5a-c)
//	ftbench -fig 6        # decomposition scalability (Fig. 6)
//	ftbench -fig 7        # scheduler (replan) latency (Fig. 7)
//	ftbench -fig ext-a    # robustness to estimation error
//	ftbench -fig ext-b    # decomposition-strategy ablation
//	ftbench -fig ext-c    # trace-driven replay
//	ftbench -fig ext-d    # lexicographic vs single min-max ablation
//	ftbench -fig ext-e    # failure injection (capacity dip)
//	ftbench -fig all      # everything
//
// -quick shrinks the Fig. 6 averaging loop for fast smoke runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flowtime/internal/experiments"
	"flowtime/internal/metrics"
)

func main() {
	log.SetFlags(0)
	fig := flag.String("fig", "all", "figure to regenerate: 1, 4, 5, 6, 7, ext-a..ext-e, all")
	quick := flag.Bool("quick", false, "reduce averaging for a fast smoke run")
	flag.Parse()

	runners := map[string]func(bool) error{
		"1": fig1, "4": fig4, "5": fig5, "6": fig6, "7": fig7,
		"ext-a": extA, "ext-b": extB, "ext-c": extC, "ext-d": extD, "ext-e": extE,
	}
	order := []string{"1", "4", "5", "6", "7", "ext-a", "ext-b", "ext-c", "ext-d", "ext-e"}

	if *fig == "all" {
		for _, id := range order {
			fmt.Printf("\n############ figure %s ############\n", id)
			if err := runners[id](*quick); err != nil {
				log.Printf("ftbench: figure %s: %v", id, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[*fig]
	if !ok {
		log.Printf("ftbench: unknown figure %q", *fig)
		os.Exit(2)
	}
	if err := run(*quick); err != nil {
		log.Printf("ftbench: %v", err)
		os.Exit(1)
	}
}

func fig1(bool) error {
	fmt.Println("Fig. 1 — motivating example: EDF blocks ad-hoc jobs; FlowTime flattens")
	fmt.Println("the workflow across its loose window. (Paper: avg turnaround 150 -> 100.)")
	sums, err := experiments.RunFig1()
	if err != nil {
		return err
	}
	rows := [][]string{{"scheduler", "W1 met deadline", "A1 turnaround", "A2 turnaround", "avg"}}
	for _, s := range sums {
		rows = append(rows, []string{
			s.Algorithm,
			fmt.Sprintf("%v", s.WorkflowsMissed == 0),
			metrics.Seconds(s.Turnarounds[0]),
			metrics.Seconds(s.Turnarounds[1]),
			metrics.Seconds(s.AvgTurnaround),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}

func fig4(bool) error {
	fmt.Println("Figs. 4a-c — 5 workflows x 18 jobs + ad-hoc stream, all algorithms.")
	fmt.Println("(Paper: FlowTime misses 0/90; CORA 10, EDF 5, Fair 8, FIFO 13;")
	fmt.Println(" ad-hoc turnaround: FlowTime 522.5s; Fair 1.36x, CORA 2x, FIFO 3x, EDF 10x.)")
	start := time.Now()
	sums, err := experiments.RunFig4(experiments.Fig4Options{})
	if err != nil {
		return err
	}
	printFig4Rows(sums)
	fmt.Printf("(elapsed %v)\n", time.Since(start).Round(time.Second))
	return nil
}

func printFig4Rows(sums []metrics.Summary) {
	rows := [][]string{{
		"scheduler", "jobs missed", "wf missed",
		"lateness p50", "lateness max", "avg ad-hoc turnaround",
	}}
	for _, s := range sums {
		late := metrics.Describe(s.JobLateness)
		rows = append(rows, []string{
			s.Algorithm,
			fmt.Sprintf("%d/%d", s.JobsMissed, s.DeadlineJobs),
			fmt.Sprintf("%d/%d", s.WorkflowsMissed, s.Workflows),
			metrics.Seconds(late.P50),
			metrics.Seconds(late.Max),
			metrics.Seconds(s.AvgTurnaround),
		})
	}
	fmt.Print(metrics.Table(rows))
	for _, s := range sums {
		if s.DegradeLevel == "" {
			continue
		}
		fmt.Printf("planner ladder [%s]: level=%s degraded_replans=%d best_effort_jobs=%d\n",
			s.Algorithm, s.DegradeLevel, s.DegradedReplans, s.BestEffortJobs)
	}
}

func fig5(bool) error {
	fmt.Println("Figs. 5a-c — deadline-slack ablation under estimation error.")
	fmt.Println("(Paper: with slack 0 misses, without 5; turnaround 522.5s vs 531.5s.)")
	res, err := experiments.RunFig5()
	if err != nil {
		return err
	}
	printFig4Rows([]metrics.Summary{res.WithSlack, res.NoSlack})
	return nil
}

func fig6(quick bool) error {
	fmt.Println("Fig. 6 — deadline-decomposition runtime vs DAG size.")
	fmt.Println("(Paper: <=3s at 200 nodes / 6000 edges, avg of 1000 runs after 100 warmups.)")
	warmup, reps := 100, 1000
	if quick {
		warmup, reps = 5, 20
	}
	points, err := experiments.RunFig6(nil, nil, warmup, reps)
	if err != nil {
		return err
	}
	rows := [][]string{{"nodes", "edges", "mean decomposition runtime"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Edges),
			p.Runtime.Round(time.Microsecond).String(),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}

func fig7(bool) error {
	fmt.Println("Fig. 7 — scheduler (replan) latency vs number of deadline jobs.")
	fmt.Println("(Paper: 500 cores / 1 TB, 100 slots x 10s, CPLEX on a laptop.)")
	points, err := experiments.RunFig7(nil)
	if err != nil {
		return err
	}
	rows := [][]string{{"deadline jobs", "replan latency", "skyline levels"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Jobs),
			p.Latency.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", p.Rounds),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}

func extA(bool) error {
	fmt.Println("Ext. A — robustness: FlowTime misses vs estimation error, slack on/off.")
	points, err := experiments.RunExtA(nil)
	if err != nil {
		return err
	}
	rows := [][]string{{"error center", "missed (slack 60s)", "missed (no slack)"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%+.0f%%", p.ErrCenter*100),
			fmt.Sprintf("%d", p.MissedWithSlack),
			fmt.Sprintf("%d", p.MissedNoSlack),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}

func extB(bool) error {
	fmt.Println("Ext. B — decomposition ablation on fan-out workflows (paper Fig. 3).")
	points, err := experiments.RunExtB(nil)
	if err != nil {
		return err
	}
	rows := [][]string{{"fan-out width", "missed (resource-demand)", "missed (critical-path)"}}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Width),
			fmt.Sprintf("%d/%d", p.MissedResource, p.JobsPerWorkflow),
			fmt.Sprintf("%d/%d", p.MissedCritical, p.JobsPerWorkflow),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}

func extC(bool) error {
	fmt.Println("Ext. C — trace-driven replay (loose 'production' deadlines).")
	sums, err := experiments.RunExtC(nil)
	if err != nil {
		return err
	}
	printFig4Rows(sums)
	return nil
}

func extD(bool) error {
	fmt.Println("Ext. D — lexicographic min-max vs single min-max round.")
	res, err := experiments.RunExtD()
	if err != nil {
		return err
	}
	printFig4Rows([]metrics.Summary{res.Lexicographic, res.SingleMinMax})
	return nil
}

func extE(bool) error {
	fmt.Println("Ext. E — failure injection: half the cluster lost from t=20min to t=40min.")
	points, err := experiments.RunExtE(nil)
	if err != nil {
		return err
	}
	rows := [][]string{{"scheduler", "jobs missed", "avg ad-hoc turnaround"}}
	for _, p := range points {
		rows = append(rows, []string{
			p.Algorithm,
			fmt.Sprintf("%d", p.Missed),
			metrics.Seconds(p.AvgTurnaround),
		})
	}
	fmt.Print(metrics.Table(rows))
	return nil
}
