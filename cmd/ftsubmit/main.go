// Command ftsubmit submits a workload trace (see ftgen) to a running
// resource manager (ftrm), or queries cluster status.
//
// Usage:
//
//	ftsubmit -trace trace.json [-rm http://localhost:8030]   # submit
//	ftsubmit -status [-rm http://localhost:8030]             # snapshot
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flowtime/internal/metrics"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		rmURL     = flag.String("rm", "http://localhost:8030", "resource manager URL")
		tracePath = flag.String("trace", "", "trace JSON file to submit")
		status    = flag.Bool("status", false, "print cluster status instead of submitting")
	)
	flag.Parse()
	if *tracePath == "" && !*status {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx, *rmURL, *tracePath, *status); err != nil {
		log.Println("ftsubmit:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, rmURL, tracePath string, status bool) error {
	client := rmserver.NewClient(rmURL, nil)
	if status {
		return printStatus(ctx, client)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	for _, wf := range tr.Workflows {
		resp, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: wf})
		if err != nil {
			return fmt.Errorf("workflow %s: %w", wf.ID, err)
		}
		fmt.Printf("submitted workflow %s\n", resp.ID)
	}
	for _, job := range tr.AdHoc {
		resp, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: job})
		if err != nil {
			return fmt.Errorf("ad-hoc %s: %w", job.ID, err)
		}
		fmt.Printf("submitted ad-hoc job %s\n", resp.ID)
	}
	return nil
}

func printStatus(ctx context.Context, client *rmserver.Client) error {
	st, err := client.Status(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("slot %d, %d nodes, capacity <vcores:%d memory-mb:%d>\n",
		st.Slot, st.Nodes, st.Capacity.VCores, st.Capacity.MemoryMB)
	rows := [][]string{{"job", "kind", "state", "deadline", "completed", "missed"}}
	for _, j := range st.Jobs {
		rows = append(rows, []string{
			j.ID, j.Kind, j.State,
			fmt.Sprintf("%ds", j.DeadlineSec),
			fmt.Sprintf("%ds", j.CompletedSec),
			fmt.Sprintf("%v", j.Missed),
		})
	}
	fmt.Print(metrics.Table(rows))
	fmt.Printf("%d pending, %d running, %d completed, %d missed\n",
		st.Summary.Pending, st.Summary.Running, st.Summary.Completed, st.Summary.Missed)
	return nil
}
