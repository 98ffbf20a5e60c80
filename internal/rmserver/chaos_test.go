package rmserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
)

// Chaos suite: every test injects a control-plane fault (node kill,
// heartbeat loss, lease timeout, scheduler panic, drain under load) and
// asserts the invariant of the fault-tolerance layer — work is either
// completed or accounted for and requeued, never silently stranded.

// panicScheduler panics for the first `panics` Assign calls, then
// delegates to the wrapped scheduler.
type panicScheduler struct {
	inner  sched.Scheduler
	panics int32
}

func (p *panicScheduler) Name() string { return "panic(" + p.inner.Name() + ")" }

func (p *panicScheduler) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	if atomic.AddInt32(&p.panics, -1) >= 0 {
		panic("injected scheduler fault")
	}
	return p.inner.Assign(ctx)
}

// TestNodeKillMidLeaseRequeues is the seed failure mode: a node dies
// while holding in-flight quanta. The seed silently deleted the node and
// the job's inFlight volume never returned — the workflow hung forever.
// Now eviction requeues the leased volume and the surviving node finishes
// the work.
func TestNodeKillMidLeaseRequeues(t *testing.T) {
	c := newCluster(t, Config{Scheduler: sched.NewEDF(), NodeExpiry: 25 * time.Second}, nil)
	rm := c.rm
	c.register("n1", 4, 8*1024) // sorts first: receives leases first-fit
	c.register("n2", 4, 8*1024)

	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(2000)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}

	// Slot 0: leases land on n1 (and possibly n2). n1 launches them and
	// is then killed — it never heartbeats again.
	c.step()
	if len(c.held["n1"]) == 0 {
		t.Fatal("n1 received no leases; fault injection needs in-flight quanta on the victim")
	}
	c.kill("n1")

	// Drive only n2. The clock moves past NodeExpiry, so n1 is evicted.
	st := c.runToCompletion(200)
	if !allCompleted(st) {
		t.Fatalf("jobs hung after node kill (seed failure mode): %+v faults=%+v", st.Jobs, st.Faults)
	}
	if st.Faults.ExpiredNodes != 1 {
		t.Errorf("expired nodes = %d, want 1", st.Faults.ExpiredNodes)
	}
	if st.Faults.RequeuedQuanta == 0 {
		t.Error("no quanta requeued despite node death mid-lease")
	}
	if st.OutstandingLeases != 0 {
		t.Errorf("outstanding leases = %d at completion, want 0", st.OutstandingLeases)
	}
}

// TestHeartbeatAfterExpiryReRegister covers the heartbeat-after-expiry
// path: an evicted node's heartbeat is rejected with ErrUnknownNode, and
// after re-registering, confirms for quanta issued before the eviction
// are counted stale and ignored — never double-delivered.
func TestHeartbeatAfterExpiryReRegister(t *testing.T) {
	c := newCluster(t, Config{NodeExpiry: 25 * time.Second}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	submitAdHoc(t, rm, "q1", 4, 20)

	c.tick()
	staleIDs := quantumIDs(c.beat("n1", nil))
	if len(staleIDs) == 0 {
		t.Fatal("no leases launched")
	}

	// Node goes silent past expiry; Tick evicts it and requeues.
	c.now = c.now.Add(50 * time.Second)
	c.tick() // 60 s of silence
	if st := rm.Status(); st.Nodes != 0 || st.Faults.ExpiredNodes != 1 {
		t.Fatalf("after silence: nodes=%d expired=%d, want 0/1", st.Nodes, st.Faults.ExpiredNodes)
	}

	// Heartbeat after eviction is rejected with the re-register signal.
	if _, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: "n1", Completed: staleIDs}, c.now); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat after expiry = %v, want ErrUnknownNode", err)
	}

	// Node re-registers and tries to confirm its pre-eviction quanta.
	c.register("n1", 8, 16*1024)
	c.beat("n1", staleIDs)
	st := rm.Status()
	if got := st.Faults.StaleConfirms; got < int64(len(staleIDs)) {
		t.Errorf("stale confirms = %d, want >= %d (pre-eviction quanta must not double-confirm)", got, len(staleIDs))
	}
	for _, j := range st.Jobs {
		if j.State == "completed" {
			t.Errorf("job %s completed from stale confirms alone", j.ID)
		}
	}

	// The requeued work then completes for real through the live node.
	final := c.runToCompletion(100)
	if !allCompleted(final) {
		t.Fatalf("job did not complete after re-register: %+v", final.Jobs)
	}
}

// TestLeaseExpiryReclaims covers the RM-side lease timeout: a node whose
// heartbeat responses are lost (it stays alive but never confirms) has
// its leases reclaimed after LeaseExpiry slots, and once the fault heals
// the job still completes. A node that stays registered but silent while
// its queued quanta expire is handed, when it heartbeats, only the leases
// still live and its own: a reclaimed quantum is never launched.
func TestLeaseExpiryReclaims(t *testing.T) {
	c := newCluster(t, Config{LeaseExpiry: 3}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	submitAdHoc(t, rm, "q1", 4, 20)

	// Silent phase: five ticks queue q-1 and q-2, expire both and grant
	// their volume again as q-3 and q-4, all on n1's queue.
	for slot := 0; slot < 5; slot++ {
		c.tick()
	}
	if rm.Status().Faults.RequeuedQuanta == 0 {
		t.Fatal("no queued quantum expired while the node was silent")
	}
	launched := c.beat("n1", nil)
	if len(launched) == 0 {
		t.Fatal("the silent node was handed nothing, its live leases included")
	}
	rm.mu.Lock()
	for _, q := range launched {
		if l := leaseOf(rm, q.ID); l == nil || l.NodeID != "n1" {
			t.Errorf("launched %s, which is not a live lease of n1", q.ID)
		}
	}
	rm.mu.Unlock()
	// Black-hole phase: the node heartbeats (stays live) but drops every
	// launch response, so nothing is ever confirmed.
	c.wedged["n1"] = true
	c.run(8)
	st := rm.Status()
	if st.Faults.RequeuedQuanta == 0 {
		t.Fatalf("lease expiry never fired: faults=%+v outstanding=%d", st.Faults, st.OutstandingLeases)
	}
	for _, j := range st.Jobs {
		if j.State == "completed" {
			t.Fatalf("job completed without any confirmation: %+v", j)
		}
	}

	// Fault heals: the node starts confirming; everything completes.
	c.wedged["n1"] = false
	final := c.runToCompletion(100)
	if !allCompleted(final) {
		t.Fatalf("job did not complete after lease-expiry requeue: %+v", final.Jobs)
	}
	if final.OutstandingLeases != 0 {
		t.Errorf("outstanding leases = %d at completion, want 0", final.OutstandingLeases)
	}
}

// TestLeaseDeadlineOnWire checks issued quanta carry their confirmation
// deadline so nodes can see the budget they are working against.
func TestLeaseDeadlineOnWire(t *testing.T) {
	c := newCluster(t, Config{LeaseExpiry: 5}, nil)
	c.register("n1", 8, 16*1024)
	submitAdHoc(t, c.rm, "q1", 2, 20)
	c.tick()
	launched := c.beat("n1", nil)
	if len(launched) == 0 {
		t.Fatal("no leases launched")
	}
	for _, q := range launched {
		if q.DeadlineSlot != 5 { // issued at slot 0, expiry 5 slots
			t.Errorf("lease %s deadline slot = %d, want 5", q.ID, q.DeadlineSlot)
		}
	}
}

// TestSchedulerPanicIsolated injects a panicking scheduler and checks the
// RM converts each panic into an errored, no-grant slot — state stays
// consistent, jobs stay queued, and scheduling resumes once the scheduler
// recovers.
func TestSchedulerPanicIsolated(t *testing.T) {
	ps := &panicScheduler{inner: sched.NewFIFO(), panics: 3}
	c := newCluster(t, Config{Scheduler: ps}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	submitAdHoc(t, rm, "q1", 4, 20)

	panicked := 0
	for slot := 0; slot < 3; slot++ {
		c.now = c.now.Add(slotDur)
		if err := rm.Tick(c.now); err != nil {
			panicked++
		}
		c.beat("n1", nil)
	}
	if panicked != 3 {
		t.Errorf("errored ticks = %d, want 3", panicked)
	}
	st := rm.Status()
	if st.Faults.SchedulerPanics != 3 {
		t.Errorf("scheduler panics = %d, want 3", st.Faults.SchedulerPanics)
	}
	if st.OutstandingLeases != 0 {
		t.Errorf("outstanding leases = %d during panic slots, want 0 (no grants)", st.OutstandingLeases)
	}
	if st.Slot != 3 {
		t.Errorf("slot = %d after 3 panicking ticks, want 3 (state must keep advancing)", st.Slot)
	}

	final := c.runToCompletion(100)
	if !allCompleted(final) {
		t.Fatalf("job did not complete after scheduler recovered: %+v", final.Jobs)
	}
}

// TestDrainUnderLoad starts a drain while leases are in flight and checks
// that no new leases are issued, outstanding work confirms, and the
// unfinished remainder is reported rather than silently dropped.
func TestDrainUnderLoad(t *testing.T) {
	c := newCluster(t, Config{}, nil)
	rm := c.rm
	c.register("n1", 4, 8*1024)
	submitAdHoc(t, rm, "big", 40, 60) // far more work than one drain can finish

	c.step()
	if len(c.held["n1"]) == 0 {
		t.Fatal("no in-flight leases before drain")
	}

	// Drain from another goroutine while the node keeps heartbeating.
	done := make(chan rmproto.DrainResponse, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- rm.Drain(ctx)
	}()

	var resp rmproto.DrainResponse
	confirmLoop := func() {
		for i := 0; i < 50; i++ {
			c.step()
			select {
			case resp = <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
	confirmLoop()

	if !resp.Draining {
		t.Fatal("drain response not draining")
	}
	if !resp.Complete || resp.OutstandingLeases != 0 {
		t.Fatalf("drain incomplete: %+v", resp)
	}
	if len(resp.UnfinishedJobs) == 0 {
		t.Error("drain under load reported no unfinished jobs; the big job cannot have finished")
	}

	// After drain: ticking issues nothing new.
	c.tick()
	if launched := c.beat("n1", nil); len(launched) != 0 {
		t.Errorf("drained RM issued %d new leases", len(launched))
	}
	if st := rm.Status(); !st.Draining {
		t.Error("status does not report draining")
	}
}

// TestConcurrentChaosStress hammers every mutating entry point from
// concurrent goroutines — heartbeats, submissions, ticks, status, a
// mid-flight node kill and a final drain — and relies on the race
// detector to catch locking mistakes. Run under go test -race.
func TestConcurrentChaosStress(t *testing.T) {
	c := newCluster(t, Config{NodeExpiry: 40 * slotDur, LeaseExpiry: 4}, nil)
	rm, base := c.rm, c.now
	nodes := []string{"n1", "n2", "n3"}
	for _, id := range nodes {
		c.register(id, 8, 16*1024)
	}

	const iters = 150
	var wg sync.WaitGroup

	// Ticker: advances slots with a clock marching 1 slot per iteration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = rm.Tick(base.Add(time.Duration(i) * slotDur))
		}
	}()

	// Nodes: heartbeat and confirm everything they launched. n3 dies
	// halfway (stops heartbeating) to mix eviction into the stress.
	for ni, id := range nodes {
		wg.Add(1)
		go func(ni int, id string) {
			defer wg.Done()
			var running []string
			for i := 0; i < iters; i++ {
				if id == "n3" && i > iters/2 {
					return
				}
				hb, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id, Completed: running}, base.Add(time.Duration(i)*slotDur))
				if err != nil {
					running = nil
					continue // evicted under stress: acceptable, keep hammering
				}
				running = quantumIDs(hb.Launch)
			}
		}(ni, id)
	}

	// Submitter: a stream of small ad-hoc jobs plus duplicate rejections.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			_, _ = rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
				ID: fmt.Sprintf("s%d", i), Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 256,
			}})
		}
	}()

	// Pollers: status and drain-status snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = rm.Status()
			_ = rm.DrainStatus()
		}
	}()

	wg.Wait()

	// Final drain with the surviving nodes confirming.
	drained := make(chan rmproto.DrainResponse, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- rm.Drain(ctx)
	}()
	pending := map[string][]string{}
	now := base.Add(iters * slotDur)
	for i := 0; ; i++ {
		now = now.Add(slotDur)
		_ = rm.Tick(now)
		for _, id := range nodes[:2] {
			hb, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id, Completed: pending[id]}, now)
			if err != nil {
				pending[id] = nil
				continue
			}
			pending[id] = quantumIDs(hb.Launch)
		}
		select {
		case resp := <-drained:
			if !resp.Complete {
				t.Fatalf("drain did not complete after stress: %+v", resp)
			}
			return
		case <-time.After(100 * time.Microsecond):
			// Yield so the drain goroutine can acquire the server lock
			// between our tick/heartbeat bursts.
		}
		if i > 10000 {
			st := rm.Status()
			t.Fatalf("drain never completed: outstanding=%d nodes=%d slot=%d faults=%+v draining=%v",
				st.OutstandingLeases, st.Nodes, st.Slot, st.Faults, st.Draining)
		}
	}
}
