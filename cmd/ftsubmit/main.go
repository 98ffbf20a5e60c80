// Command ftsubmit submits a workload trace (see ftgen) to a running
// resource manager (ftrm), or queries cluster status.
//
// Usage:
//
//	ftsubmit -trace trace.json [-rm http://localhost:8030]   # submit
//	ftsubmit -status [-rm http://localhost:8030]             # snapshot
//
// A submission run prints one line per workflow and ad-hoc job — an
// ad-hoc job the RM's admission gate turns away is reported as rejected,
// a workflow admitted without a feasible deadline decomposition as
// best-effort — and ends with one count line. It exits 1 when any
// submission was not accepted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flowtime/internal/metrics"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/trace"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs ftsubmit with the given arguments and returns its exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftsubmit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rmURL     = fs.String("rm", "http://localhost:8030", "resource manager URL")
		tracePath = fs.String("trace", "", "trace JSON file to submit")
		status    = fs.Bool("status", false, "print cluster status instead of submitting")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *tracePath == "" && !*status {
		fs.Usage()
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx, stdout, *rmURL, *tracePath, *status); err != nil {
		fmt.Fprintln(stderr, "ftsubmit:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, out io.Writer, rmURL, tracePath string, status bool) error {
	client := rmserver.NewClient(rmURL, nil)
	if status {
		return printStatus(ctx, out, client)
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

	var accepted, bestEffort int
	note := func(kind string, resp rmproto.SubmitResponse, refusal string) {
		if !resp.Accepted {
			fmt.Fprintf(out, "rejected %s %s (%s)\n", kind, resp.ID, refusal)
			return
		}
		accepted++
		if resp.BestEffort {
			bestEffort++
			fmt.Fprintf(out, "submitted %s %s, admitted best-effort\n", kind, resp.ID)
			return
		}
		fmt.Fprintf(out, "submitted %s %s\n", kind, resp.ID)
	}
	for _, wf := range tr.Workflows {
		resp, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: wf})
		if err != nil {
			return fmt.Errorf("workflow %s: %w", wf.ID, err)
		}
		note("workflow", resp, "not admitted")
	}
	for _, job := range tr.AdHoc {
		resp, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: job})
		if err != nil {
			return fmt.Errorf("ad-hoc %s: %w", job.ID, err)
		}
		note("ad-hoc job", resp, "admission gate")
	}
	total := len(tr.Workflows) + len(tr.AdHoc)
	fmt.Fprintf(out, "%d of %d submissions accepted (%d best-effort), %d rejected\n", accepted, total, bestEffort, total-accepted)
	if accepted < total {
		return errors.New("not every submission was accepted")
	}
	return nil
}

func printStatus(ctx context.Context, out io.Writer, client *rmserver.Client) error {
	st, err := client.Status(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "slot %d, %d nodes, capacity <vcores:%d memory-mb:%d>\n",
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
	fmt.Fprint(out, metrics.Table(rows))
	fmt.Fprintf(out, "%d pending, %d running, %d completed, %d missed\n",
		st.Summary.Pending, st.Summary.Running, st.Summary.Completed, st.Summary.Missed)
	return nil
}
