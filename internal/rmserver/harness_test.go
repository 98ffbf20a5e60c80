package rmserver

import (
	"slices"
	"testing"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/store"
	"flowtime/internal/trace"
)

// The RM's tests run it as one in-process cluster: the server under test,
// the store under it when it has one, a virtual clock, and the nodes that
// heartbeat it. A slot is one step, as the RM runs inside YARN: the RM
// ticks, then every node heartbeats, confirming what it launched the slot
// before and taking what it is handed now.

const slotDur = 10 * time.Second

// clockStart is where every cluster's clock starts.
var clockStart = time.Date(2018, time.July, 2, 0, 0, 0, 0, time.UTC)

// durable is the store under a cluster's RM: a directory (a fresh one of
// the test's own when empty), its fsync policy (SyncAlways when zero), the
// file system it runs on (the OS's when nil), and whether the test
// abandons it un-closed, as a SIGKILL or a machine crash does, instead of
// closing it at cleanup.
type durable struct {
	dir     string
	policy  store.SyncPolicy
	fs      store.FS
	abandon bool
}

// cluster is one RM under test and the nodes that heartbeat it.
type cluster struct {
	tb    testing.TB
	rm    *Server
	store *store.Store // nil for an RM without one
	// now is the clock every call reads: a tick moves it one slot, and
	// nothing else does unless a test moves it.
	now   time.Time
	nodes []string // registered, in registration order
	// held is what each node launched and confirms at its next heartbeat;
	// a wedged node heartbeats, confirms nothing and launches nothing.
	held   map[string][]string
	wedged map[string]bool
}

// newCluster builds an RM from cfg — FIFO at slotDur unless cfg says
// otherwise — on the store d describes, or on none when d is nil.
func newCluster(tb testing.TB, cfg Config, d *durable) *cluster {
	tb.Helper()
	if cfg.SlotDur == 0 {
		cfg.SlotDur = slotDur
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewFIFO()
	}
	c := &cluster{tb: tb, now: clockStart, held: map[string][]string{}, wedged: map[string]bool{}}
	if d != nil {
		dir := d.dir
		if dir == "" {
			dir = tb.TempDir()
		}
		st, err := store.Open(store.Options{Dir: dir, Policy: d.policy, FS: d.fs})
		if err != nil {
			tb.Fatalf("store.Open: %v", err)
		}
		if !d.abandon {
			tb.Cleanup(func() { st.Close() })
		}
		c.store, cfg.Store = st, st
	}
	rm, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	c.rm = rm
	return c
}

// register registers (or re-registers, with empty hands) node id.
func (c *cluster) register(id string, cores, memMB int64) {
	c.tb.Helper()
	if _, err := c.rm.RegisterNode(rmproto.RegisterNodeRequest{
		NodeID:   id,
		Capacity: rmproto.Resources{VCores: cores, MemoryMB: memMB},
	}, c.now); err != nil {
		c.tb.Fatalf("RegisterNode(%s): %v", id, err)
	}
	if _, ok := c.held[id]; !ok {
		c.nodes = append(c.nodes, id)
	}
	c.held[id] = nil
}

// kill stops node id heartbeating, as a dead node manager does; the RM
// still holds it until it expires.
func (c *cluster) kill(id string) {
	c.nodes = slices.DeleteFunc(c.nodes, func(n string) bool { return n == id })
	delete(c.held, id)
}

// tick moves the clock one slot and ticks the RM at it.
func (c *cluster) tick() {
	c.tb.Helper()
	c.now = c.now.Add(c.rm.cfg.SlotDur)
	if err := c.rm.Tick(c.now); err != nil {
		c.tb.Fatalf("Tick: %v", err)
	}
}

// beat heartbeats node id confirming completed, and returns what it was
// handed, which it then holds.
func (c *cluster) beat(id string, completed []string) []rmproto.Quantum {
	c.tb.Helper()
	resp, err := c.rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id, Completed: completed}, c.now)
	if err != nil {
		c.tb.Fatalf("Heartbeat(%s): %v", id, err)
	}
	c.held[id] = quantumIDs(resp.Launch)
	return resp.Launch
}

// beatAll heartbeats every registered node in registration order, each
// confirming what it holds; each, when not nil, runs after every
// heartbeat with what the node was handed.
func (c *cluster) beatAll(each func(id string, launch []rmproto.Quantum)) {
	c.tb.Helper()
	for _, id := range c.nodes {
		var launch []rmproto.Quantum
		if c.wedged[id] {
			launch = c.beat(id, nil)
			c.held[id] = nil
		} else {
			launch = c.beat(id, c.held[id])
		}
		if each != nil {
			each(id, launch)
		}
	}
}

// step plays one slot: a tick, then every node's heartbeat.
func (c *cluster) step() {
	c.tb.Helper()
	c.tick()
	c.beatAll(nil)
}

// run plays n slots.
func (c *cluster) run(n int) {
	c.tb.Helper()
	for ; n > 0; n-- {
		c.step()
	}
}

// runTo plays slots until the RM is at slot.
func (c *cluster) runTo(slot int64) {
	c.tb.Helper()
	for c.rm.Status().Slot < slot {
		c.step()
	}
}

// runToCompletion plays slots until every job has completed, or for
// maxSlots, and returns the status it ended at.
func (c *cluster) runToCompletion(maxSlots int) rmproto.StatusResponse {
	c.tb.Helper()
	for ; maxSlots > 0; maxSlots-- {
		c.step()
		if st := c.rm.Status(); allCompleted(st) {
			return st
		}
	}
	return c.rm.Status()
}

// submitAdHoc admits an ad-hoc job of one-core, 512 MB tasks.
func submitAdHoc(tb testing.TB, rm *Server, id string, tasks int, durSec int64) {
	tb.Helper()
	if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
		ID: id, Tasks: tasks, TaskDurSec: durSec, DemandVCores: 1, DemandMemMB: 512,
	}}); err != nil {
		tb.Fatalf("SubmitAdHoc(%s): %v", id, err)
	}
}

// pollUntil polls cond, which a goroutine beside the test makes true,
// until it holds, failing the test after 15 s.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func quantumIDs(qs []rmproto.Quantum) []string {
	ids := make([]string, 0, len(qs))
	for _, q := range qs {
		ids = append(ids, q.ID)
	}
	return ids
}

// leaseOf is the lease a launched quantum's ID names on rm, nil when none
// does; rm.mu must be held.
func leaseOf(rm *Server, qid string) *rmstate.Lease {
	n, ok := rmproto.ParseQuantumID(qid)
	if !ok {
		return nil
	}
	return rm.st.Leases()[rmproto.QuantumNum(n)]
}

func allCompleted(st rmproto.StatusResponse) bool {
	if len(st.Jobs) == 0 {
		return false
	}
	for _, j := range st.Jobs {
		if j.State != "completed" {
			return false
		}
	}
	return true
}
