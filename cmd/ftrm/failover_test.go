package main

import (
	"context"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// TestFailoverChaos is the replicated-RM chaos test: a real primary
// ftrm process is SIGKILLed under load, its warm-standby follower (a
// second real process, replicating over HTTP) is promoted, the node
// agent follows the not_leader redirect and re-registers, and the
// workload runs to completion on the new primary with exactly its
// required volume delivered. Afterwards the promoted RM's state
// directory is put through the recovery-equivalence oracle: the state a
// fresh process rebuilds from it must match what the promoted process
// reported.
func TestFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := buildFTRM(t)
	pDir, fDir := t.TempDir(), t.TempDir()
	pPort, fPort := freePort(t), freePort(t)
	pBase := fmt.Sprintf("http://127.0.0.1:%d", pPort)
	fBase := fmt.Sprintf("http://127.0.0.1:%d", fPort)
	pClient := rmserver.NewClient(pBase, nil)
	fClient := rmserver.NewClient(fBase, nil)

	primary := startFTRM(t, bin, pDir, pPort, "-advertise", pBase)
	follower := startFTRM(t, bin, fDir, fPort, "-replica-of", pBase, "-advertise", fBase)

	// The agent knows both RMs; it starts against the primary and must
	// find the promoted follower on its own after the kill.
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	go rmserver.RunAgent(agentCtx, rmserver.NewClient(pBase, nil), rmserver.AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536},
		RMs:      []string{pBase, fBase},
		Backoff:  rmserver.Backoff{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond},
	})
	waitStatus(t, pClient, 10*time.Second, "node registration", func(st rmproto.StatusResponse) bool {
		return st.Nodes == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pClient.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf-failover", DeadlineSec: 3600,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
			{Name: "b", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := pClient.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "a1", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}

	// Load in flight AND the standby caught up — killing a primary whose
	// follower is behind would (correctly) lose the unshipped tail, but
	// this test pins the happy failover path.
	waitStatus(t, pClient, 15*time.Second, "work in flight with follower caught up", func(st rmproto.StatusResponse) bool {
		return st.OutstandingLeases > 0 &&
			st.Replication != nil && st.Replication.FollowerSeen && st.Replication.LagRecords == 0
	})

	// SIGKILL the primary mid-load and promote the standby.
	if err := primary.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	primary.Wait()
	promoteCtx, promoteCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer promoteCancel()
	promo, err := fClient.Promote(promoteCtx)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if promo.Role != "primary" || promo.Epoch < 2 {
		t.Fatalf("Promote = %+v, want primary at epoch >= 2", promo)
	}

	// The agent must re-register with the new primary and the full
	// workload must complete there, exactly once.
	final := waitStatus(t, fClient, 60*time.Second, "workload completion on promoted RM", func(st rmproto.StatusResponse) bool {
		if st.Nodes != 1 || st.OutstandingLeases != 0 || len(st.Jobs) != 3 {
			return false
		}
		for _, j := range st.Jobs {
			if j.State != "completed" {
				return false
			}
		}
		return true
	})
	for _, j := range final.Jobs {
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v (exactly-once violated)", j.ID, j.Delivered, j.Total)
		}
	}
	if final.Replication == nil || final.Replication.Role != "primary" {
		t.Fatalf("promoted RM replication status %+v, want role primary", final.Replication)
	}

	// Recovery-equivalence oracle over the promoted RM's state: stop the
	// process cleanly (SIGTERM drains and writes a final snapshot),
	// recover its directory in-process, and check the rebuilt state
	// (a) survives the oracle's crash-copy round trip and (b) matches
	// what the promoted process reported over HTTP.
	stopAgent()
	if err := follower.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM promoted RM: %v", err)
	}
	if err := follower.Wait(); err != nil {
		t.Fatalf("promoted RM exited with error after SIGTERM: %v", err)
	}

	st, err := store.Open(store.Options{Dir: fDir, Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("open promoted state dir: %v", err)
	}
	defer st.Close()
	rm, err := rmserver.New(rmserver.Config{
		SlotDur: 50 * time.Millisecond, Scheduler: sched.NewFIFO(),
		LeaseExpiry: 8, Store: st, Follower: true,
	})
	if err != nil {
		t.Fatalf("recover promoted state dir: %v", err)
	}
	if err := rm.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on promoted state: %v", err)
	}
	rec := rm.Status()
	if len(rec.Jobs) != 3 {
		t.Fatalf("recovered %d jobs from promoted state dir, want 3", len(rec.Jobs))
	}
	for _, j := range rec.Jobs {
		if j.State != "completed" || j.Delivered != j.Total {
			t.Errorf("recovered job %s: state=%s delivered=%+v total=%+v, want completed with exact delivery",
				j.ID, j.State, j.Delivered, j.Total)
		}
	}
	if rm.Epoch() < promo.Epoch {
		t.Errorf("recovered epoch %d below promoted epoch %d; the fencing token did not survive", rm.Epoch(), promo.Epoch)
	}
}
