package rmserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// The overload family's proportions: each seed draws its cluster, its
// deadline load and its faults.
const (
	overloadSeeds  = 16
	overloadSlot   = 60 * time.Second
	overloadArrive = 40 // slots that receive submissions
	overloadTail   = 80 // slots past them for the backlog to drain
)

// overloadRun is one seed's draw.
type overloadRun struct {
	nodes   []rmproto.RegisterNodeRequest
	load    float64 // deadline demand over the arrival phase, in capacities
	wfs     [][]trace.WorkflowRecord
	adhoc   [][]trace.AdHocRecord
	kills   map[int]string // slot -> the node that stops heartbeating then
	restart int            // the slot before which the RM restarts from its store
}

// genOverload draws seed's run: 4–16 nodes of 8 or 16 vcores, workflows
// whose summed volume is 1.0×–2.0× of the capacity of the arrival phase,
// one in four due half a slot after it is submitted, a window no
// decomposition fits (admitted best-effort), 10–30 ad-hoc jobs every fifth
// slot on top, two nodes killed mid-lease, and one restart of the RM in
// the first 60 slots.
func genOverload(t *testing.T, seed int64) overloadRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := overloadRun{load: 1 + rng.Float64(), kills: map[int]string{}}
	var capacity resource.Vector
	for i := range 4 + rng.Intn(13) {
		cores := int64(8 << rng.Intn(2))
		r.nodes = append(r.nodes, rmproto.RegisterNodeRequest{
			NodeID: fmt.Sprintf("n%02d", i), Capacity: rmproto.Resources{VCores: cores, MemoryMB: cores * 4096},
		})
		capacity = capacity.Add(resource.New(cores, cores*4096))
	}
	shapes := []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage, workload.ShapeChain, workload.ShapeRandom,
	}
	r.wfs = make([][]trace.WorkflowRecord, overloadArrive)
	target := r.load * float64(capacity.Get(resource.VCores)*overloadArrive)
	maxSpanSec := int64(overloadTail-10) * int64(overloadSlot/time.Second)
	for n, volume := 0, 0.0; volume < target; n++ {
		wf, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID: fmt.Sprintf("wf%03d", n), Shape: shapes[n%len(shapes)], Jobs: 5 + rng.Intn(6), DeadlineFactor: 2 + 4*rng.Float64(),
		})
		if err != nil {
			t.Fatalf("GenerateWorkflow: %v", err)
		}
		for i := range wf.NumJobs() {
			volume += float64(wf.Job(i).Volume(overloadSlot).Get(resource.VCores))
		}
		tr, err := trace.FromWorkload([]*workflow.Workflow{wf}, nil)
		if err != nil {
			t.Fatalf("trace.FromWorkload: %v", err)
		}
		rec := tr.Workflows[0]
		rec.DeadlineSec = min(rec.DeadlineSec, maxSpanSec)
		if n%4 == 3 {
			rec.DeadlineSec = int64(overloadSlot/time.Second) / 2 // a window shorter than a slot
		}
		s := rng.Intn(overloadArrive)
		r.wfs[s] = append(r.wfs[s], rec)
	}
	r.adhoc = make([][]trace.AdHocRecord, overloadArrive)
	for s := 0; s < overloadArrive; s += 5 {
		for i := range 10 + rng.Intn(21) {
			r.adhoc[s] = append(r.adhoc[s], trace.AdHocRecord{
				ID: fmt.Sprintf("ah%02d-%02d", s, i), Tasks: 1 + rng.Intn(6), TaskDurSec: 60 * (1 + rng.Int63n(3)),
				DemandVCores: 1 + rng.Int63n(2), DemandMemMB: 1024 * (1 + rng.Int63n(4)),
			})
		}
	}
	for len(r.kills) < 2 {
		r.kills[3+rng.Intn(overloadArrive)] = r.nodes[rng.Intn(len(r.nodes))].NodeID
	}
	r.restart = 5 + rng.Intn(overloadArrive+15)
	return r
}

// TestOverloadFamily runs the whole RM — decomposition, planner, gate,
// placement, journal — where deadline work alone asks for more than the
// cluster has: the shortfall split, best-effort admissions, the deferred
// ledger and yielding reservations are on the path every slot. Per slot,
// every Assign is held to work conservation and the ad-hoc-removal
// relation as the scheduler returned it (oracle.Conserving), and
// checkOverloadSlot holds the leases to the capacities and the job
// ledgers. Once per seed the RM restarts from its store, abandoned as a
// SIGKILL leaves it, and the nodes re-register with empty hands; every
// check holds on the restarted RM. At the end every job has completed
// with its volume exactly, the live state equals its replay, leases
// included, and the recovery oracle holds. A workflow that misses without ever having been marked at
// risk is counted, not failed: stage A routed its jobs in full, and what
// lost them the deadline came after it (the integral repair, a killed
// node, a requeue).
func TestOverloadFamily(t *testing.T) {
	unflagged, atRisk := 0, 0
	for seed := int64(1); seed <= overloadSeeds; seed++ {
		u, r := playOverload(t, seed)
		unflagged, atRisk = unflagged+u, atRisk+r
	}
	if atRisk == 0 {
		t.Error("no workflow was ever at risk: the family is not overloaded")
	}
	t.Logf("%d workflows missed without having been marked at risk over %d seeds", unflagged, overloadSeeds)
}

// playOverload plays seed's run and returns how many of its planned
// workflows missed unflagged and how many were ever at risk.
func playOverload(t *testing.T, seed int64) (unflagged, atRisk int) {
	t.Helper()
	r := genOverload(t, seed)
	dir := t.TempDir()
	var (
		c      *cluster
		rm     *Server
		ft     *oracle.Conserving
		ticked int64                 // the ticks the processes' schedulers checked
		faults rmproto.FaultCounters // what the processes counted
	)
	// count adds what the running process checked and counted, which its
	// restart would lose.
	count := func() {
		f := rm.Status().Faults
		faults.RequeuedQuanta += f.RequeuedQuanta
		faults.ExpiredNodes += f.ExpiredNodes
		faults.BestEffortAdmissions += f.BestEffortAdmissions
		ticked += ft.Slots()
	}
	capacity := map[string]resource.Vector{}
	// start runs an RM on the store in dir, recovering what it holds, and
	// registers nodes with it.
	start := func(nodes []string) {
		now := clockStart
		if c != nil {
			now = c.now
		}
		ft = oracle.NewConserving(core.DefaultConfig())
		c = newCluster(t, Config{SlotDur: overloadSlot, Scheduler: ft, NodeExpiry: 3 * overloadSlot, AdHocGate: true},
			&durable{dir: dir, policy: store.SyncNever, abandon: true})
		c.now, rm = now, c.rm
		for _, id := range nodes {
			c.register(id, capacity[id].Get(resource.VCores), capacity[id].Get(resource.MemoryMB))
		}
	}
	var all []string
	for _, n := range r.nodes {
		capacity[n.NodeID] = n.Capacity.ToVector()
		all = append(all, n.NodeID)
	}
	start(all)
	at := func(slot int) string {
		return fmt.Sprintf("seed %d (%d nodes, load %.2f) slot %d", seed, len(r.nodes), r.load, slot)
	}
	flagged, bestEffort, deadline := map[string]bool{}, map[string]bool{}, map[string]time.Duration{}
	c.step() // the first plan revision opens the gate
	for slot := 0; slot < overloadArrive+overloadTail; slot++ {
		if slot == r.restart {
			count()
			start(slices.Clone(c.nodes))
		}
		if slot < overloadArrive {
			for _, rec := range r.wfs[slot] {
				resp, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: rec})
				if err != nil {
					t.Fatalf("%s: SubmitWorkflow(%s): %v", at(slot), rec.ID, err)
				}
				bestEffort[rec.ID] = resp.BestEffort
				deadline[rec.ID] = time.Duration(rm.Status().Slot)*overloadSlot + time.Duration(rec.DeadlineSec-rec.SubmitSec)*time.Second
			}
			for _, rec := range r.adhoc[slot] {
				if _, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: rec}); err != nil {
					t.Fatalf("%s: SubmitAdHoc(%s): %v", at(slot), rec.ID, err)
				}
			}
		}
		if id, ok := r.kills[slot]; ok && len(c.held[id]) > 0 {
			c.kill(id) // mid-lease: it holds quanta it will never confirm
		}
		c.step()
		if err := checkOverloadSlot(rm, capacity); err != nil {
			t.Fatalf("%s: %v", at(slot), err)
		}
		for _, w := range rm.Status().AtRisk {
			flagged[w.WorkflowID] = true
		}
		if _, ok := r.kills[slot-6]; ok {
			for _, n := range r.nodes {
				if _, live := c.held[n.NodeID]; !live {
					c.register(n.NodeID, n.Capacity.VCores, n.Capacity.MemoryMB)
				}
			}
		}
	}
	final := rm.Status()
	missed := map[string]bool{}
	for _, j := range final.Jobs {
		if j.State != "completed" || j.Delivered != j.Total {
			t.Fatalf("seed %d: job %s ended %s with %+v of %+v delivered", seed, j.ID, j.State, j.Delivered, j.Total)
		}
		done := time.Duration(j.CompletedSec) * time.Second
		if j.Kind == "deadline" && done-overloadSlot > deadline[j.WorkflowID] {
			missed[j.WorkflowID] = true
		}
	}
	for id := range missed {
		if !flagged[id] && !bestEffort[id] {
			unflagged++
		}
	}
	if count(); ticked != final.Slot {
		t.Fatalf("seed %d: work conservation checked on %d of %d ticks", seed, ticked, final.Slot)
	}
	live, replayed, _ := liveAndReplayed(t, rm)
	if !bytes.Equal(live.snapshot, replayed.snapshot) || !reflect.DeepEqual(live.inFlight, replayed.inFlight) {
		t.Fatalf("seed %d: replaying the log does not rebuild the live state:\nlive:     %s\nreplayed: %s", seed, live.snapshot, replayed.snapshot)
	}
	if err := rm.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("seed %d: recovery equivalence: %v", seed, err)
	}
	if faults.ExpiredNodes == 0 || faults.RequeuedQuanta == 0 || faults.BestEffortAdmissions == 0 {
		t.Errorf("seed %d exercised too little: faults %+v", seed, faults)
	}
	t.Logf("seed %d: %d nodes, load %.2f, %d workflows, %d missed, %d ever at risk, %d missed unflagged; restarted at slot %d requeuing %d leases",
		seed, len(r.nodes), r.load, len(deadline), len(missed), len(flagged), unflagged, r.restart, rm.Recovery().OrphanLeasesRequeued)
	return unflagged, len(flagged)
}

// checkOverloadSlot holds the RM's leases, after a slot, to the capacities
// and the ledgers:
//   - the leases one slot issued on a node (those of one expiry) fit the
//     node's capacity;
//   - each lease is a whole number of its job's tasks, but for the pieces
//     of one rest per job and slot, which together hold no whole task;
//   - per job, the leases add up to its in-flight volume, and confirmed
//     plus in flight plus remaining is its total: nothing is delivered
//     beyond it.
func checkOverloadSlot(rm *Server, capacity map[string]resource.Vector) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	type slotOf struct {
		id     string
		expiry int64
	}
	onNode := map[slotOf]resource.Vector{}
	rests := map[slotOf]resource.Vector{}
	inFlight := map[*rmstate.Job]resource.Vector{}
	for _, l := range rm.st.Leases() {
		onNode[slotOf{l.NodeID, l.Expiry}] = onNode[slotOf{l.NodeID, l.Expiry}].Add(l.Grant)
		inFlight[l.Job] = inFlight[l.Job].Add(l.Grant)
		if k := wholeTasksIn(l.Grant, l.Job.Task); k == 0 || l.Job.Task.Scale(k) != l.Grant {
			rests[slotOf{l.Job.ID, l.Expiry}] = rests[slotOf{l.Job.ID, l.Expiry}].Add(l.Grant)
		}
	}
	for k, v := range onNode {
		if !v.FitsIn(capacity[k.id]) {
			return fmt.Errorf("node %s holds %v from one slot on a capacity of %v", k.id, v, capacity[k.id])
		}
	}
	for k, v := range rests {
		j := rm.st.Jobs()[k.id]
		if j != nil && wholeTasksIn(v, j.Task) > 0 {
			return fmt.Errorf("job %s: the leases of one slot that are no whole number of its %v tasks add up to %v, more than one rest", k.id, j.Task, v)
		}
	}
	for _, j := range rm.st.Jobs() {
		if inFlight[j] != j.InFlight {
			return fmt.Errorf("job %s: leases of %v, in flight %v", j.ID, inFlight[j], j.InFlight)
		}
		remaining := j.Total.SubClamped(j.Delivered).SubClamped(j.InFlight)
		if j.Delivered.Add(j.InFlight).Add(remaining) != j.Total {
			return fmt.Errorf("job %s: confirmed %v + in flight %v + remaining %v is not its total %v", j.ID, j.Delivered, j.InFlight, remaining, j.Total)
		}
	}
	return nil
}

// wholeTasksIn is how many tasks of demand task fit in v.
func wholeTasksIn(v, task resource.Vector) int64 {
	n := int64(-1)
	for _, k := range resource.Kinds() {
		if t := task.Get(k); t > 0 && (n < 0 || v.Get(k)/t < n) {
			n = v.Get(k) / t
		}
	}
	return max(n, 0)
}
