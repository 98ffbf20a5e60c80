package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
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

// buildFTRM compiles the ftrm binary once per test run.
func buildFTRM(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "ftrm")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ftrm: %v\n%s", err, out)
	}
	return bin
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startFTRM launches the RM process against the given state directory.
// extra appends flags (e.g. -replica-of for a standby).
func startFTRM(t *testing.T, bin, stateDir string, port int, extra ...string) *exec.Cmd {
	t.Helper()
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-sched", "FIFO",
		"-slot", "50ms",
		"-lease-expiry", "8",
		"-drain-timeout", "5s",
		"-state-dir", stateDir,
		"-snapshot-every", "40",
		"-fsync", "always",
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start ftrm: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitStatus polls /v1/status until ok reports the poll can stop, the
// process under test dies, or the deadline passes.
func waitStatus(t *testing.T, client *rmserver.Client, timeout time.Duration, what string, ok func(rmproto.StatusResponse) bool) rmproto.StatusResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last rmproto.StatusResponse
	var lastErr error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := client.Status(ctx)
		cancel()
		if err == nil {
			last, lastErr = st, nil
			if ok(st) {
				return st
			}
		} else {
			lastErr = err
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: last status %+v, last error %v", what, last, lastErr)
	return last
}

// TestKillAndRestartRecovers is the kill-and-restart chaos test: a real
// ftrm process is SIGKILLed mid-workload and restarted from its state
// directory. Every submitted job must survive the crash and complete
// with exactly its required volume delivered — no lost submissions, no
// double-counted work, no phantom in-flight volume. A subsequent clean
// SIGTERM shutdown must leave a final snapshot so the next start
// replays zero WAL records.
func TestKillAndRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := buildFTRM(t)
	stateDir := t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	client := rmserver.NewClient(base, nil)

	proc1 := startFTRM(t, bin, stateDir, port)

	// One in-process node agent. It outlives both RM incarnations: on the
	// RM's restart the heartbeat gets unknown_node and the agent
	// re-registers with empty hands, exactly like a production ftnode.
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	go rmserver.RunAgent(agentCtx, rmserver.NewClient(base, nil), rmserver.AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536},
	})
	waitStatus(t, client, 10*time.Second, "node registration", func(st rmproto.StatusResponse) bool {
		return st.Nodes == 1
	})

	// Submit a two-job chain workflow and an ad-hoc job: 3 jobs total.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: trace.WorkflowRecord{
		ID: "wf-crash", DeadlineSec: 3600,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
			{Name: "b", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if _, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "a1", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}

	// Let the workload get into flight, then SIGKILL mid-slot.
	waitStatus(t, client, 15*time.Second, "work in flight", func(st rmproto.StatusResponse) bool {
		return st.OutstandingLeases > 0
	})
	if err := proc1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc1.Wait()

	// Restart from the same state directory and port.
	startFTRM(t, bin, stateDir, port)
	st := waitStatus(t, client, 15*time.Second, "restarted RM", func(st rmproto.StatusResponse) bool {
		return st.Recovery != nil
	})
	if !st.Recovery.Performed {
		t.Fatalf("no recovery after restart: %+v", st.Recovery)
	}
	if len(st.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3 (lost submissions): %+v", len(st.Jobs), st.Jobs)
	}

	// Everything must run to completion, exactly once.
	final := waitStatus(t, client, 60*time.Second, "workload completion", func(st rmproto.StatusResponse) bool {
		if st.OutstandingLeases != 0 {
			return false
		}
		for _, j := range st.Jobs {
			if j.State != "completed" {
				return false
			}
		}
		return len(st.Jobs) == 3
	})
	for _, j := range final.Jobs {
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v (exactly-once violated)", j.ID, j.Delivered, j.Total)
		}
	}
	if final.OutstandingLeases != 0 {
		t.Errorf("phantom in-flight volume: %d leases outstanding after completion", final.OutstandingLeases)
	}
}

// copyStateDir snapshots a state directory byte-for-byte (including any
// torn WAL tail a SIGKILL left behind) so the recovery oracle can replay
// it while the real process restarts on the original.
func copyStateDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy state dir: %v", err)
	}
}

// recoverInProcess opens a state directory through the full recovery
// path (as a follower, so recovery neither claims a new epoch nor
// requeues anything it shouldn't) and returns the rebuilt server.
func recoverInProcess(t *testing.T, dir string) *rmserver.Server {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("open state dir copy: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	rm, err := rmserver.New(rmserver.Config{
		SlotDur: 50 * time.Millisecond, Scheduler: sched.NewFIFO(),
		LeaseExpiry: 8, Store: st, Follower: true,
	})
	if err != nil {
		t.Fatalf("recover state dir: %v", err)
	}
	return rm
}

// streamingFlags turns an ftrm process into a plan-streaming FlowTime RM
// with the ad-hoc admission gate armed. Slack is zeroed so the short
// deadlines used here stay feasible at a 50ms slot.
var streamingFlags = []string{"-sched", "FlowTime", "-slack", "0s", "-stream-plans", "-adhoc-gate"}

// planWorkflow returns a deadline workflow small enough to plan at a
// 50ms slot but busy enough to drive a stream of plan revisions.
func planWorkflow(id string) trace.WorkflowRecord {
	return trace.WorkflowRecord{
		ID: id, DeadlineSec: 15,
		Jobs: []trace.JobRecord{
			{Name: "a", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
			{Name: "b", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}
}

// TestCrashMidDiffApplicationRecoversPlan SIGKILLs a plan-streaming RM
// while diffs are being applied and journaled, then asserts — twice —
// that the recovered live plan is the pre-diff or post-diff state and
// never a torn mix. First the recovery-equivalence oracle replays a
// byte-for-byte copy of the crashed state directory (torn tail and all)
// and must land on a whole revision no older than one diff behind the
// last revision the crashed process acknowledged. Then the real process
// restarts on the original directory: its first replan cannot chain onto
// the recovered revision (the scheduler's counter restarted), so it must
// repair the break with a loud journaled rebase — and the surviving
// workload must still complete exactly once behind the ad-hoc gate.
func TestCrashMidDiffApplicationRecoversPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := buildFTRM(t)
	stateDir := t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	client := rmserver.NewClient(base, nil)

	proc1 := startFTRM(t, bin, stateDir, port, streamingFlags...)
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	go rmserver.RunAgent(agentCtx, rmserver.NewClient(base, nil), rmserver.AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536},
	})
	waitStatus(t, client, 10*time.Second, "node registration", func(st rmproto.StatusResponse) bool {
		return st.Nodes == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: planWorkflow(fmt.Sprintf("wf-%d", i))}); err != nil {
			t.Fatalf("SubmitWorkflow %d: %v", i, err)
		}
	}
	// The gate admits only against a published plan revision; once one
	// exists, a small ad-hoc job must pass it.
	waitStatus(t, client, 15*time.Second, "first plan revision", func(st rmproto.StatusResponse) bool {
		return st.Plan != nil && st.Plan.Rev >= 1
	})
	adResp, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "a1", Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024,
	}})
	if err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	if !adResp.Accepted {
		t.Fatal("ad-hoc gate rejected a trivially feasible job with a live plan published")
	}

	// Let the revision stream build up, then SIGKILL mid-application.
	pre := waitStatus(t, client, 20*time.Second, "plan revisions streaming", func(st rmproto.StatusResponse) bool {
		return st.Plan != nil && st.Plan.Rev >= 3 && st.Plan.DiffsApplied >= 3 && st.OutstandingLeases > 0
	})
	preRev := pre.Plan.Rev
	if err := proc1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc1.Wait()

	// Oracle leg: replay a frozen copy of the crashed directory. The
	// acknowledged revision's commit may have been in flight when the
	// kill landed, so recovery must land on preRev or preRev-1 — a whole
	// revision either way, never a torn mix (a diff that fails to chain
	// aborts recovery loudly, so a successful rebuild proves wholeness).
	frozen := filepath.Join(t.TempDir(), "frozen")
	copyStateDir(t, stateDir, frozen)
	oracle := recoverInProcess(t, frozen)
	ost := oracle.Status()
	if ost.Plan == nil {
		t.Fatal("oracle recovery lost the live plan entirely")
	}
	if ost.Plan.Rev != preRev && ost.Plan.Rev != preRev-1 {
		t.Fatalf("oracle recovered plan rev %d, want pre-diff %d or post-diff %d",
			ost.Plan.Rev, preRev-1, preRev)
	}
	if err := oracle.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on crashed state: %v", err)
	}

	// Restart leg: the real process recovers the original directory and
	// keeps going. Its restarted scheduler cannot extend the recovered
	// diff chain, so exactly one loud rebase repairs it.
	startFTRM(t, bin, stateDir, port, streamingFlags...)
	st := waitStatus(t, client, 15*time.Second, "restarted RM", func(st rmproto.StatusResponse) bool {
		return st.Recovery != nil && st.Plan != nil
	})
	if st.Plan.Rev < preRev-1 {
		t.Fatalf("restarted RM recovered plan rev %d, want at least %d", st.Plan.Rev, preRev-1)
	}
	waitStatus(t, client, 15*time.Second, "post-recovery rebase", func(st rmproto.StatusResponse) bool {
		return st.Plan != nil && st.Plan.Rebases >= 1
	})

	final := waitStatus(t, client, 60*time.Second, "workload completion", func(st rmproto.StatusResponse) bool {
		if st.OutstandingLeases != 0 || len(st.Jobs) != 7 {
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
}

// planChain returns a deadline workflow that is a chain of depth jobs of
// planWorkflow's size. FlowTime runs a ready job on idle capacity, so on
// this test's otherwise empty node every level is done in its two seconds
// of task time, far ahead of its planned window — and each such early
// finish is a quality replan and a plan revision. A chain therefore
// streams a revision every couple of seconds for as long as it is deep,
// with leases outstanding throughout; planWorkflow's two levels are over
// (second 4) before a standby has caught up with the third revision.
func planChain(id string, depth int) trace.WorkflowRecord {
	wf := trace.WorkflowRecord{ID: id, DeadlineSec: 40}
	for i := 0; i < depth; i++ {
		wf.Jobs = append(wf.Jobs, trace.JobRecord{
			Name: string(rune('a' + i)), Tasks: 4, TaskDurSec: 2, DemandVCores: 2, DemandMemMB: 1024,
		})
		if i > 0 {
			wf.Deps = append(wf.Deps, [2]int{i - 1, i})
		}
	}
	return wf
}

// TestFailoverPreservesStreamedPlan kills a plan-streaming primary whose
// warm standby is caught up, promotes the standby, and asserts the
// replicated diffs rebuilt the identical plan there: the promoted RM
// reports every shipped diff applied, repairs the chain break from its
// own scheduler with one journaled rebase, finishes the workload, and
// its state directory passes the recovery-equivalence oracle. The
// workload is two six-deep chains (planChain), so the kill lands with
// most levels still to run and the plan stream is live on both sides of
// the failover.
func TestFailoverPreservesStreamedPlan(t *testing.T) {
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

	primary := startFTRM(t, bin, pDir, pPort, append([]string{"-advertise", pBase}, streamingFlags...)...)
	follower := startFTRM(t, bin, fDir, fPort, append([]string{"-advertise", fBase, "-replica-of", pBase}, streamingFlags...)...)

	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	go rmserver.RunAgent(agentCtx, rmserver.NewClient(pBase, nil), rmserver.AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536},
		RMs:      []string{pBase, fBase},
		Backoff:  rmserver.Backoff{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, MaxAttempts: 2},
	})
	waitStatus(t, pClient, 10*time.Second, "node registration", func(st rmproto.StatusResponse) bool {
		return st.Nodes == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := pClient.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: planChain(fmt.Sprintf("wf-fo-%d", i), 6)}); err != nil {
			t.Fatalf("SubmitWorkflow %d: %v", i, err)
		}
	}

	// Revisions streaming AND the standby fully caught up: lag 0 read in
	// the same status response as the revision means every diff record up
	// to that revision has been shipped.
	pre := waitStatus(t, pClient, 20*time.Second, "revisions streaming with follower caught up", func(st rmproto.StatusResponse) bool {
		return st.Plan != nil && st.Plan.Rev >= 3 && st.OutstandingLeases > 0 &&
			st.Replication != nil && st.Replication.FollowerSeen && st.Replication.LagRecords == 0
	})
	preRev := pre.Plan.Rev
	if pre.Summary.Completed > 8 {
		t.Fatalf("%d of 12 jobs already done at the kill: no plan stream left to fail over", pre.Summary.Completed)
	}
	if err := primary.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL primary: %v", err)
	}
	primary.Wait()

	promoteCtx, promoteCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer promoteCancel()
	if promo, err := fClient.Promote(promoteCtx); err != nil {
		t.Fatalf("Promote: %v", err)
	} else if promo.Role != "primary" {
		t.Fatalf("Promote = %+v, want primary", promo)
	}

	// The promoted RM holds the shipped plan: every replicated diff
	// applied, then exactly one rebase when its own scheduler's first
	// replan could not chain onto the inherited revision.
	waitStatus(t, fClient, 15*time.Second, "promoted RM plan state", func(st rmproto.StatusResponse) bool {
		return st.Plan != nil && st.Plan.DiffsApplied >= preRev && st.Plan.Rebases >= 1
	})

	final := waitStatus(t, fClient, 60*time.Second, "workload completion on promoted RM", func(st rmproto.StatusResponse) bool {
		if st.Nodes != 1 || st.OutstandingLeases != 0 || len(st.Jobs) != 12 {
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

	// Recovery-equivalence oracle over the promoted directory: diffs,
	// the epoch bump, the rebase, and the post-promotion diff stream all
	// replay into exactly the state the promoted process held.
	stopAgent()
	if err := follower.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM promoted RM: %v", err)
	}
	if err := follower.Wait(); err != nil {
		t.Fatalf("promoted RM exited with error after SIGTERM: %v", err)
	}
	rec := recoverInProcess(t, fDir)
	if err := rec.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on promoted state: %v", err)
	}
	rst := rec.Status()
	if rst.Plan == nil || rst.Plan.Rev == 0 {
		t.Fatalf("promoted state dir recovered without a live plan: %+v", rst.Plan)
	}
}

// TestKillAndRestartKeepsAHandOffAsALease is the process-kill side of the
// hand-off's durability bargain (the machine-crash side, where the page
// cache dies too, is rmserver's TestMachineCrashTakesBackAnUnsyncedHandOff):
// a heartbeat confirms a, is handed b's quantum in the same reply, and the
// RM is SIGKILLed before any tick commits either record. Both were written,
// so both survive the kill: the log replays the confirm, then the grant as
// the same lease — held in flight by a recovery that keeps leases, requeued
// as the one orphan by the restarted RM — and the chain completes with
// every job delivered exactly once.
func TestKillAndRestartKeepsAHandOffAsALease(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := buildFTRM(t)
	stateDir := t.TempDir()
	port := freePort(t)
	client := rmserver.NewClient(fmt.Sprintf("http://127.0.0.1:%d", port), nil)
	flags := []string{"-sched", "FlowTime", "-manual-tick"}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	proc1 := startFTRM(t, bin, stateDir, port, flags...)
	waitStatus(t, client, 10*time.Second, "ftrm up", func(rmproto.StatusResponse) bool { return true })
	node := rmproto.RegisterNodeRequest{NodeID: "n1", Capacity: rmproto.Resources{VCores: 4, MemoryMB: 8192}}
	if _, err := client.RegisterNode(ctx, node); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	if _, err := client.SubmitWorkflow(ctx, rmproto.SubmitWorkflowRequest{Workflow: planWorkflow("wf")}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	// slot plays one slot as the node: tick, then confirm what the last
	// reply launched and take what this one does.
	var held []rmproto.Quantum
	slot := func() {
		t.Helper()
		if err := client.Tick(ctx); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		req := rmproto.HeartbeatRequest{NodeID: "n1"}
		for _, q := range held {
			req.Completed = append(req.Completed, q.ID)
		}
		resp, err := client.Heartbeat(ctx, req)
		if err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		held = resp.Launch
	}
	handedOff := func() bool { return len(held) > 0 && held[0].JobID == "wf/b#1" }
	for i := 0; i < 200 && !handedOff(); i++ {
		slot()
	}
	if !handedOff() {
		t.Fatal("b was never launched")
	}
	if err := proc1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	proc1.Wait()

	frozen := filepath.Join(t.TempDir(), "frozen")
	copyStateDir(t, stateDir, frozen)
	oracle := recoverInProcess(t, frozen)
	ost := oracle.Status()
	if ost.OutstandingLeases != len(held) || ost.Summary.Completed != 1 {
		t.Fatalf("replaying the killed RM's log gives %d leases and %d completed jobs, want b's %d and a",
			ost.OutstandingLeases, ost.Summary.Completed, len(held))
	}
	if err := oracle.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence on a log ending in a heartbeat's grant record: %v", err)
	}

	startFTRM(t, bin, stateDir, port, flags...)
	st := waitStatus(t, client, 15*time.Second, "restarted RM", func(st rmproto.StatusResponse) bool {
		return st.Recovery != nil
	})
	if st.Recovery.OrphanLeasesRequeued != len(held) || st.OutstandingLeases != 0 {
		t.Fatalf("restart requeued %d orphan leases with %d still out, want b's %d and none",
			st.Recovery.OrphanLeasesRequeued, st.OutstandingLeases, len(held))
	}
	// The agent's part: unknown to the restarted RM, it drops what it held.
	if _, err := client.Heartbeat(ctx, rmproto.HeartbeatRequest{NodeID: "n1", Completed: []string{held[0].ID}}); !errors.Is(err, rmserver.ErrUnknownNode) {
		t.Fatalf("heartbeat to the restarted RM = %v, want unknown_node", err)
	}
	held = nil
	if _, err := client.RegisterNode(ctx, node); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	done := func(st rmproto.StatusResponse) bool { return st.Summary.Completed == 2 && st.OutstandingLeases == 0 }
	for i := 0; i < 200 && !done(st); i++ {
		slot()
		var err error
		if st, err = client.Status(ctx); err != nil {
			t.Fatalf("Status: %v", err)
		}
	}
	if !done(st) {
		t.Fatalf("the chain did not complete after the restart: %+v", st.Summary)
	}
	for _, j := range st.Jobs {
		if j.Delivered != j.Total {
			t.Errorf("job %s delivered %+v, want exactly %+v (exactly-once violated)", j.ID, j.Delivered, j.Total)
		}
	}
}

// TestGracefulShutdownSnapshotsState verifies the clean-shutdown path: a
// SIGTERM drain writes a final snapshot, and the next start replays zero
// WAL records.
func TestGracefulShutdownSnapshotsState(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	bin := buildFTRM(t)
	stateDir := t.TempDir()
	port := freePort(t)
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	client := rmserver.NewClient(base, nil)

	proc1 := startFTRM(t, bin, stateDir, port)
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	go rmserver.RunAgent(agentCtx, rmserver.NewClient(base, nil), rmserver.AgentConfig{
		NodeID:   "n1",
		Capacity: rmproto.Resources{VCores: 16, MemoryMB: 65536},
	})
	waitStatus(t, client, 10*time.Second, "node registration", func(st rmproto.StatusResponse) bool {
		return st.Nodes == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.SubmitAdHoc(ctx, rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: "a1", Tasks: 2, TaskDurSec: 1, DemandVCores: 2, DemandMemMB: 512,
	}}); err != nil {
		t.Fatalf("SubmitAdHoc: %v", err)
	}
	waitStatus(t, client, 30*time.Second, "ad-hoc completion", func(st rmproto.StatusResponse) bool {
		return len(st.Jobs) == 1 && st.Jobs[0].State == "completed" && st.OutstandingLeases == 0
	})

	if err := proc1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := proc1.Wait(); err != nil {
		t.Fatalf("ftrm exited with error after SIGTERM: %v", err)
	}

	startFTRM(t, bin, stateDir, port)
	st := waitStatus(t, client, 15*time.Second, "restart after graceful shutdown", func(st rmproto.StatusResponse) bool {
		return st.Recovery != nil
	})
	if !st.Recovery.FromSnapshot {
		t.Errorf("no final snapshot from graceful shutdown: %+v", st.Recovery)
	}
	if st.Recovery.RecordsReplayed != 0 {
		t.Errorf("replayed %d WAL records after clean shutdown, want 0", st.Recovery.RecordsReplayed)
	}
	if st.Draining {
		t.Error("restarted RM is draining; drain must not persist across restarts")
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != "completed" {
		t.Errorf("completed job lost across clean restart: %+v", st.Jobs)
	}
}
