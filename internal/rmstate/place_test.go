package rmstate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// admitAdHoc applies the admission of an ad-hoc job of tasks tasks, each
// of durSec seconds and of the given demand, and returns the job.
func admitAdHoc(t *testing.T, s *State, id string, tasks int, durSec int64, demand resource.Vector) *Job {
	t.Helper()
	rec, err := s.AdmitAdHoc(trace.AdHocRecord{
		ID: id, Tasks: tasks, TaskDurSec: durSec,
		DemandVCores: demand.Get(resource.VCores), DemandMemMB: demand.Get(resource.MemoryMB),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&Record{AdHoc: rec}); err != nil {
		t.Fatal(err)
	}
	return s.Jobs()[rmproto.AdHocJobID(id)]
}

// leaseShapes lists rec's grants as node:grant, in grant order.
func leaseShapes(rec *RecTick) []string {
	var out []string
	for _, g := range rec.Grants {
		out = append(out, g.NodeID+":"+g.Grant.String())
	}
	return out
}

// TestPlaceRefusesTasksNoNodeHolds: whole tasks go first-fit; a task that
// fits the nodes' summed room but no single node is refused and counted,
// not split into a lease no task fits.
func TestPlaceRefusesTasksNoNodeHolds(t *testing.T) {
	s := New(10*time.Second, 3)
	big := admitAdHoc(t, s, "big", 2, 10, resource.New(3, 1024))
	small := admitAdHoc(t, s, "small", 1, 10, resource.New(2, 512))
	nodes := []*Node{{ID: "n1", Capacity: resource.New(4, 4096)}, {ID: "n2", Capacity: resource.New(4, 4096)}}
	rec, ns := &RecTick{Slot: 1}, NewNodes(nodes)
	// Two 3-core tasks: one lands on each node.
	if placed, refused := s.place(big, resource.New(6, 2048), ns, nil, rec); placed != resource.New(6, 2048) || refused != 0 {
		t.Fatalf("placed %v, refused %d; want both tasks placed", placed, refused)
	}
	// Each node has 1 core left: a 2-core task fits their sum, neither node.
	if placed, refused := s.place(small, resource.New(2, 512), ns, nil, rec); !placed.IsZero() || refused != 1 {
		t.Fatalf("placed %v, refused %d; want the task refused", placed, refused)
	}
	want := []string{"n1:<vcores:3 memory-mb:1024>", "n2:<vcores:3 memory-mb:1024>"}
	if got := leaseShapes(rec); !slices.Equal(got, want) {
		t.Fatalf("leases %v, want %v", got, want)
	}
}

// TestPlaceDeliversARestNoNodeHoldsWhole: a job of (2 vcores, 4096 MB)
// tasks whose memory is delivered in full is granted (24, 0), which holds
// no whole task and fits no 16-vcore node. It is the rest, and it must be
// placed in full, split first-fit: kept as one piece, or dropped, it would
// never be placed and the job would starve.
func TestPlaceDeliversARestNoNodeHoldsWhole(t *testing.T) {
	s := New(10*time.Second, 3)
	j := admitAdHoc(t, s, "wide", 12, 30, resource.New(2, 4096))
	// Deliver all of its memory and none of its vcores.
	mem := resource.Vector{}.With(resource.MemoryMB, j.Total.Get(resource.MemoryMB))
	if err := s.Apply(&Record{Tick: &RecTick{Slot: 1, Grants: []RecGrant{{QID: 1, JobID: j.ID, NodeID: "n1", Grant: mem, Expiry: 9}}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&Record{Confirm: &RecConfirm{Slot: 1, QIDs: []rmproto.QuantumNum{1}}}); err != nil {
		t.Fatal(err)
	}
	tick, jobs := s.DecideTick(nil, true)
	if want := resource.New(24, 0); len(jobs) != 1 || jobs[0].Request != want {
		t.Fatalf("jobs %+v, want one requesting %v", jobs, want)
	}
	nodes := []*Node{{ID: "n1", Capacity: resource.New(16, 65536)}, {ID: "n2", Capacity: resource.New(16, 65536)}}
	offers, refused := s.PlaceTick(tick, jobs, map[string]resource.Vector{j.ID: jobs[0].Request}, NewNodes(nodes))
	if len(offers) != 0 || refused != 0 {
		t.Fatalf("offers %v, refused %d; want none", offers, refused)
	}
	want := []string{"n1:<vcores:16 memory-mb:0>", "n2:<vcores:8 memory-mb:0>"}
	if got := leaseShapes(tick); !slices.Equal(got, want) {
		t.Fatalf("leases %v, want all 24 vcores placed as %v", got, want)
	}
}

// placeCall is one job's grant as a placement call processes it.
type placeCall struct {
	job   *Job
	grant resource.Vector
}

// checkPlacement holds one placement call's record to the placement rule,
// replaying its grants over nodes from the Placed each held before the
// call (before):
//   - each job's leases are a whole number of its tasks, then the pieces
//     of its one rest, and nothing else;
//   - whole tasks are refused only when no node has room for one, and
//     placed plus refused tasks are ⌊g/Task⌋ summed over the calls;
//   - the rest is placed in full whenever the nodes' summed room covers it,
//     and never beyond it;
//   - no node's Placed exceeds its capacity, and each is what was placed.
func checkPlacement(calls []placeCall, before []resource.Vector, nodes []*Node, rec *RecTick, refused int64) error {
	free := make(map[string]resource.Vector, len(nodes))
	for i, n := range nodes {
		free[n.ID] = n.Capacity.Sub(before[i])
	}
	sumFree := func() (sum resource.Vector) {
		for _, n := range nodes {
			sum = sum.Add(free[n.ID])
		}
		return sum
	}
	roomForOne := func(task resource.Vector) string {
		for _, n := range nodes {
			if task.FitsIn(free[n.ID]) {
				return n.ID
			}
		}
		return ""
	}
	// tasksIn is k when v is k ≥ 1 whole tasks, 0 otherwise.
	tasksIn := func(v, task resource.Vector) int64 {
		if k := wholeTasks(v, task); k > 0 && task.Scale(k) == v {
			return k
		}
		return 0
	}
	take := func(g RecGrant) error {
		f, ok := free[g.NodeID]
		if !ok {
			return fmt.Errorf("lease %s on unknown node %s", g.QID, g.NodeID)
		}
		if free[g.NodeID] = f.Sub(g.Grant); free[g.NodeID].AnyNegative() {
			return fmt.Errorf("lease %s overcommits %s", g.QID, g.NodeID)
		}
		return nil
	}
	i, short := 0, int64(0)
	for _, c := range calls {
		want := wholeTasks(c.grant, c.job.Task)
		rest := c.grant.Sub(c.job.Task.Scale(want))
		var tasks int64
		for ; i < len(rec.Grants) && rec.Grants[i].JobID == c.job.ID; i++ {
			k := tasksIn(rec.Grants[i].Grant, c.job.Task)
			if k == 0 {
				break
			}
			if err := take(rec.Grants[i]); err != nil {
				return err
			}
			tasks += k
		}
		if tasks > want {
			return fmt.Errorf("%s: %d tasks placed of a grant of %d", c.job.ID, tasks, want)
		}
		if n := roomForOne(c.job.Task); tasks < want && n != "" {
			return fmt.Errorf("%s: %d of %d tasks refused while %s has room for one", c.job.ID, want-tasks, want, n)
		}
		short += want - tasks
		covered := rest.FitsIn(sumFree())
		var placed resource.Vector
		for ; i < len(rec.Grants) && rec.Grants[i].JobID == c.job.ID; i++ {
			g := rec.Grants[i]
			if tasksIn(g.Grant, c.job.Task) > 0 {
				return fmt.Errorf("%s: lease %s of whole tasks after its rest", c.job.ID, g.QID)
			}
			if err := take(g); err != nil {
				return err
			}
			placed = placed.Add(g.Grant)
		}
		if !placed.FitsIn(rest) {
			return fmt.Errorf("%s: rest placed %v beyond the rest %v", c.job.ID, placed, rest)
		}
		if covered && placed != rest {
			return fmt.Errorf("%s: rest placed %v of %v though the nodes' room covers it", c.job.ID, placed, rest)
		}
	}
	if i != len(rec.Grants) {
		return fmt.Errorf("lease %s is none of the calls' (%d of %d read)", rec.Grants[i].QID, i, len(rec.Grants))
	}
	if short != refused {
		return fmt.Errorf("%d tasks refused, want %d", refused, short)
	}
	for _, n := range nodes {
		if !n.Placed.FitsIn(n.Capacity) || n.Capacity.Sub(n.Placed) != free[n.ID] {
			return fmt.Errorf("node %s: Placed %v on capacity %v, the leases leave %v", n.ID, n.Placed, n.Capacity, free[n.ID])
		}
	}
	return nil
}

// TestPlacementProperty holds PlaceTick and DecideHandOff, on seeded
// nodes, tasks and grants, to the placement rule (checkPlacement). The
// hand-off comes after a seeded number of the nodes heartbeat, in a seeded
// order, the last of them confirming: on the set they were heard in, it
// places only on the confirming node and those not heard, and exactly as
// the tick's rule places on a set built from scratch of the confirming
// node, then the nodes not heard in ID order.
func TestPlacementProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(10*time.Second, 3)
		for i := range 1 + rng.Intn(8) {
			task := resource.New(1+rng.Int63n(4), 256*rng.Int63n(9))
			admitAdHoc(t, s, fmt.Sprintf("j%d", i), 1+rng.Intn(30), 10*(1+rng.Int63n(6)), task)
		}
		nodes := make([]*Node, 1+rng.Intn(6))
		var capacity resource.Vector
		for i := range nodes {
			nodes[i] = &Node{ID: fmt.Sprintf("n%d", i), Capacity: resource.New(1+rng.Int63n(16), 512*rng.Int63n(33))}
			capacity = capacity.Add(nodes[i].Capacity)
		}
		before := make([]resource.Vector, len(nodes))

		// A tick: grants up to each request, together within the capacity,
		// so PlaceTick clamps none.
		tick, jobs := s.DecideTick(nil, true)
		grants := make(map[string]resource.Vector)
		var calls []placeCall
		left := capacity
		for _, st := range jobs {
			var g resource.Vector
			for _, k := range resource.Kinds() {
				g = g.With(k, rng.Int63n(1+min(st.Request.Get(k), left.Get(k))))
			}
			left = left.Sub(g)
			grants[st.ID] = g
			if !g.IsZero() {
				calls = append(calls, placeCall{s.Jobs()[st.ID], g})
			}
		}
		_, refused := s.PlaceTick(tick, jobs, grants, NewNodes(nodes))
		if err := checkPlacement(calls, before, nodes, tick, refused); err != nil {
			t.Fatalf("seed %d: PlaceTick: %v\nnodes %v\ncalls %v\nleases %v", seed, err, nodes, calls, leaseShapes(tick))
		}

		// A hand-off onto nodes already part full: offers up to twice the
		// capacity, which nothing clamps.
		var offers []Offer
		calls = calls[:0]
		for _, id := range sortedKeys(s.Jobs()) {
			if rng.Intn(2) == 0 {
				continue
			}
			var g resource.Vector
			for _, k := range resource.Kinds() {
				g = g.With(k, rng.Int63n(1+2*capacity.Get(k)))
			}
			offers = append(offers, Offer{Job: s.Jobs()[id], Grant: g})
			if !g.IsZero() {
				calls = append(calls, placeCall{s.Jobs()[id], g})
			}
		}
		for i, n := range nodes {
			for _, k := range resource.Kinds() {
				n.Placed = n.Placed.With(k, rng.Int63n(1+n.Capacity.Get(k)))
			}
			before[i] = n.Placed
		}
		NewNodes(nodes) // their set, over the Placed just drawn
		order := rng.Perm(len(nodes))
		order = order[:1+rng.Intn(len(order))]
		for _, i := range order {
			nodes[i].Hear()
		}
		confirming := nodes[order[len(order)-1]]
		targets, targetsBefore := []*Node{confirming}, []resource.Vector{confirming.Placed}
		for i, n := range nodes {
			if !n.heard {
				targets, targetsBefore = append(targets, n), append(targetsBefore, before[i])
			}
		}
		ref := make([]*Node, len(targets))
		for i, n := range targets {
			ref[i] = &Node{ID: n.ID, Capacity: n.Capacity, Placed: n.Placed}
		}
		want, refNodes := &RecTick{Slot: s.slot}, NewNodes(ref)
		var wantRefused int64
		for _, o := range offers {
			_, r := s.place(o.Job, o.Grant, refNodes, nil, want)
			wantRefused += r
		}
		rec, _, _, _, refused := s.DecideHandOff(offers, confirming)
		if !slices.Equal(rec.Grants, want.Grants) || refused != wantRefused {
			t.Fatalf("seed %d: heard %v: DecideHandOff placed %v, refusing %d; the rule from scratch %v, refusing %d", seed, order, leaseShapes(rec), refused, leaseShapes(want), wantRefused)
		}
		if err := checkPlacement(calls, targetsBefore, targets, rec, refused); err != nil {
			t.Fatalf("seed %d: DecideHandOff: %v\nnodes %v\ncalls %v\nleases %v", seed, err, nodes, calls, leaseShapes(rec))
		}
	}
}

// TestNodesEqualTheirRebuild holds the node set's point updates to a fresh
// build: over seeded sequences of joins in random ID order, Puts of known
// IDs (at zero capacity too), heartbeats, placements and new slots, the
// set's room tree, free room and capacity after every step equal those of
// NewNodes over copies of the same nodes.
func TestNodesEqualTheirRebuild(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ns := NewNodes(nil)
		vec := func(hi int64) resource.Vector { return resource.New(rng.Int63n(hi), 1024*rng.Int63n(hi)) }
		for step := range 200 {
			var op string
			switch r := rng.Intn(10); {
			case r < 3 || len(ns.List()) == 0:
				id := fmt.Sprintf("n%02d", rng.Intn(40))
				capacity := vec(17)
				if rng.Intn(4) == 0 {
					capacity = resource.Vector{}
				}
				ns.Put(id, capacity)
				op = "put " + id + " " + capacity.String()
			case r < 5:
				n := ns.List()[rng.Intn(len(ns.List()))]
				n.Hear()
				op = "hear " + n.ID
			case r < 9:
				n := ns.List()[rng.Intn(len(ns.List()))]
				v := vec(9).Min(n.free())
				ns.take(n, v)
				op = "take " + n.ID + " " + v.String()
			default:
				ns.NewSlot()
				op = "new slot"
			}
			copies := make([]*Node, len(ns.List()))
			for i, n := range ns.List() {
				copies[i] = &Node{ID: n.ID, Capacity: n.Capacity, Placed: n.Placed, heard: n.heard}
			}
			want := NewNodes(copies)
			if !slices.Equal(ns.room, want.room) || ns.free != want.free || ns.capacity != want.capacity {
				t.Fatalf("seed %d, step %d (%s): room %v free %v capacity %v, rebuilt %v %v %v",
					seed, step, op, ns.room, ns.free, ns.capacity, want.room, want.free, want.capacity)
			}
		}
	}
}
