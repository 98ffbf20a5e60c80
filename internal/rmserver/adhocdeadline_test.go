package rmserver

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/store"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// The burst player's proportions are bench's adhoc-burst workload — a
// deadline background near 40 % of an 8 × 16-vcore cluster, 40 ad-hoc
// jobs every 5th slot offering ~70 % more, a gate that turns some of them
// away — over a quarter of its arrival phase and from half its initial
// backlog.
const (
	burstSlot     = 60 * time.Second
	burstNodes    = 8
	burstVCores   = 16
	burstArrive   = 72 // slots that receive submissions
	burstTail     = 100
	burstSetupWFs = 4
	burstWFEvery  = 6
	burstWFJobs   = 8
	burstAdHocGap = 5
	burstBatch    = 40
)

// burstLoad is what one slot submits, workflows first.
type burstLoad struct {
	wfs   []trace.WorkflowRecord
	adhoc []trace.AdHocRecord
}

// genBurst draws the op list for one seed: burstSetupWFs workflows up
// front, then one every burstWFEvery slots and a burst of ad-hoc jobs
// every burstAdHocGap slots. Workflows and ad-hoc jobs draw from separate
// streams, so playing the list without its ad-hoc jobs leaves the
// workflows what they were.
func genBurst(t *testing.T, seed int64) (setup []trace.WorkflowRecord, slots []burstLoad) {
	t.Helper()
	wfRng, ahRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
	shapes := []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage, workload.ShapeEpigenomics,
		workload.ShapeRandom, workload.ShapeCyberShake, workload.ShapeSipht, workload.ShapeChain,
	}
	maxSpanSec := int64(burstTail-8) * int64(burstSlot/time.Second) // every deadline falls inside the run
	nWF := 0
	newWF := func() trace.WorkflowRecord {
		wf, err := workload.GenerateWorkflow(wfRng, workload.WorkflowSpec{
			ID: fmt.Sprintf("wf%04d", nWF), Shape: shapes[nWF%len(shapes)], Jobs: burstWFJobs, DeadlineFactor: 6,
		})
		if err != nil {
			t.Fatalf("GenerateWorkflow: %v", err)
		}
		nWF++
		tr, err := trace.FromWorkload([]*workflow.Workflow{wf}, nil)
		if err != nil {
			t.Fatalf("trace.FromWorkload: %v", err)
		}
		rec := tr.Workflows[0]
		rec.DeadlineSec = min(rec.DeadlineSec, maxSpanSec)
		return rec
	}
	for i := 0; i < burstSetupWFs; i++ {
		setup = append(setup, newWF())
	}
	slots = make([]burstLoad, burstArrive+burstTail)
	nAdHoc := 0
	for s := 0; s < burstArrive; s++ {
		if s%burstWFEvery == 0 {
			slots[s].wfs = append(slots[s].wfs, newWF())
		}
		if s%burstAdHocGap != 0 {
			continue
		}
		jobs, err := workload.GenerateAdHoc(ahRng, workload.AdHocSpec{
			Count: burstBatch, MeanInterarrival: time.Second,
			MinTasks: 2, MaxTasks: 9, MinTaskDur: 60 * time.Second, MaxTaskDur: 180 * time.Second,
			Demand: resource.New(1, 1024),
		})
		if err != nil {
			t.Fatalf("GenerateAdHoc: %v", err)
		}
		tr, err := trace.FromWorkload(nil, jobs)
		if err != nil {
			t.Fatalf("trace.FromWorkload: %v", err)
		}
		for _, rec := range tr.AdHoc {
			rec.ID = fmt.Sprintf("ah%05d", nAdHoc)
			rec.SubmitSec = 0 // the slot is the arrival
			nAdHoc++
			slots[s].adhoc = append(slots[s].adhoc, rec)
		}
	}
	return setup, slots
}

// playBurst plays the op list against a fresh durable RM with the gate
// on — submissions, tick, every node's heartbeat confirming what it
// launched a slot ago — and returns which workflows met their deadline
// (by the RM's own rule: a completion is seen one slot after the work
// ran) and how many ad-hoc jobs the gate admitted. Every tick's grants
// are held to work conservation and the per-slot ad-hoc-removal relation
// as the scheduler returned them (oracle.Conserving). It ends in the
// recovery-equivalence oracle.
func playBurst(t *testing.T, setup []trace.WorkflowRecord, slots []burstLoad, withAdHoc bool) (met map[string]bool, admitted int) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	ft := oracle.NewConserving(cfg) // a violation fails the Tick that saw it
	rm, err := New(Config{SlotDur: burstSlot, Scheduler: ft, NodeExpiry: 3 * burstSlot, Store: st, AdHocGate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nodes := make([]string, burstNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
		register(t, rm, nodes[i], burstVCores, burstVCores*4096)
	}

	slotSec := int64(burstSlot / time.Second)
	deadlineSec := map[string]int64{}
	submitWF := func(rec trace.WorkflowRecord) {
		resp, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: rec})
		if err != nil || !resp.Accepted {
			t.Fatalf("SubmitWorkflow(%s): accepted=%v err=%v", rec.ID, resp.Accepted, err)
		}
		deadlineSec[rec.ID] = rm.Status().Slot*slotSec + rec.DeadlineSec - rec.SubmitSec
	}
	pending := make([][]string, burstNodes)
	tick := func() {
		if err := rm.Tick(time.Now()); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for i, id := range nodes {
			resp, err := rm.Heartbeat(rmproto.HeartbeatRequest{NodeID: id, Completed: pending[i]}, time.Now())
			if err != nil {
				t.Fatalf("Heartbeat(%s): %v", id, err)
			}
			pending[i] = pending[i][:0]
			for _, q := range resp.Launch {
				pending[i] = append(pending[i], q.ID)
			}
		}
	}

	for _, rec := range setup {
		submitWF(rec)
	}
	tick()
	for _, load := range slots {
		for _, rec := range load.wfs {
			submitWF(rec)
		}
		if !withAdHoc {
			load.adhoc = nil
		}
		for _, rec := range load.adhoc {
			resp, err := rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: rec})
			if err != nil {
				t.Fatalf("SubmitAdHoc(%s): %v", rec.ID, err)
			}
			if resp.Accepted { // a gate rejection is a decision, not a failure
				admitted++
			}
		}
		tick()
	}

	final := rm.Status()
	if d := ft.Degradation(); d.GreedyFallbacks+d.InvalidPlans != 0 {
		t.Fatalf("planner stepped down its ladder: %+v", d)
	}
	if ft.Slots() != final.Slot {
		t.Fatalf("work conservation checked on %d of %d ticks", ft.Slots(), final.Slot)
	}
	met = make(map[string]bool, len(deadlineSec))
	for id := range deadlineSec {
		met[id] = true
	}
	for _, j := range final.Jobs {
		if j.State != "completed" || j.Delivered != j.Total {
			t.Fatalf("job %s ended %s with %+v of %+v delivered", j.ID, j.State, j.Delivered, j.Total)
		}
		if j.Kind == "deadline" && (j.CompletedSec/slotSec-1)*slotSec > deadlineSec[j.WorkflowID] {
			met[j.WorkflowID] = false
		}
	}
	if err := rm.VerifyRecoveryEquivalence(filepath.Join(t.TempDir(), "scratch")); err != nil {
		t.Fatalf("recovery equivalence: %v", err)
	}
	return met, admitted
}

// TestAdHocNeverCostsDeadline is the system-level form of the paper's
// one-directional contract (§II-B, §V): deadline work is planned first
// and ad-hoc work takes what is left, so no ad-hoc load — however much
// the gate admits of it — may turn a met deadline into a miss. Each seed
// is played twice through the whole RM (decomposition, planner, plan
// stream, gate, drain folding, journal), with and without its ad-hoc
// stream: every workflow that meets its deadline alone must meet it
// under the burst. (Alone, the workflows also finish sooner — deadline
// work runs on whatever capacity nothing else asked for, and the burst
// asks for most of it — so the two runs' completion times differ by
// design; it is the verdicts that must not.)
//
// What the planner guarantees is narrower than what is pinned here: in
// any one replan no reservation costs a deadline job it knows of
// (core.TestStageAIgnoresReservations, oracle.CheckReservationsYield).
// Deadline work the skyline moved later around a surviving reservation
// can still collide with a workflow that arrives afterwards; at these
// sizes that costs nothing on 30 of 30 seeds, and starting from
// adhoc-burst's full backlog of 8 workflows it costs one workflow on one
// seed of 30 (ROADMAP: the gate admitting against deadline-safe headroom).
func TestAdHocNeverCostsDeadline(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		setup, slots := genBurst(t, seed)
		alone, _ := playBurst(t, setup, slots, false)
		burst, admitted := playBurst(t, setup, slots, true)
		if admitted == 0 {
			t.Fatalf("seed %d: the gate admitted nothing — the burst tested nothing", seed)
		}
		metAlone := 0
		for id, ok := range alone {
			if !ok {
				continue
			}
			metAlone++
			if !burst[id] {
				t.Errorf("seed %d: workflow %s meets its deadline alone and misses it beside %d admitted ad-hoc jobs", seed, id, admitted)
			}
		}
		if metAlone < len(alone)/2 {
			t.Fatalf("seed %d: only %d of %d workflows meet their deadline with no ad-hoc load — the background is not a deadline workload", seed, metAlone, len(alone))
		}
	}
}
