package main

import (
	"fmt"
	"math/rand"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// slotDur is the RM's scheduling slot. The harness never waits for it:
// ftrm runs with -manual-tick and the slot clock is virtual.
const slotDur = 60 * time.Second

// refSeconds is the --seconds value the workload sizes below are tuned
// for: at refSeconds the three timed passes of a workload measure for
// about that long in total on a 2-core box. Other values scale the
// arrival phase linearly.
const refSeconds = 15

// memPerVCoreMB sizes node memory so vcores are the binding resource;
// the planner still solves the memory LP on every replan.
const memPerVCoreMB = 4096

// spec is one workload's recipe. Everything random in the generated
// scenario comes from the seed; the spec only fixes sizes and rates.
type spec struct {
	name, why string

	nodes      int
	nodeVCores int64

	// arriveSlots (at refSeconds) is the part of the timed phase that
	// receives submissions; tailSlots is the fixed drain that follows,
	// long enough for the latest deadline to pass, so every admitted job
	// finishes inside the run.
	arriveSlots, tailSlots int

	setupWFs       int     // workflows submitted before the first tick
	warmSlots      int     // the op list's first slots, played untimed as part of set-up
	wfEvery        int     // then one arrival per this many slots
	wfJobs         int     // jobs per workflow
	deadlineFactor float64 // deadline = factor x critical path, capped by the tail

	adhocEvery int // ad-hoc arrivals land every n-th slot...
	adhocBatch int // ...this many at a time
	adhoc      workload.AdHocSpec

	scrapeEvery int  // main connection scrapes /v1/status + /metrics every n-th slot
	scraper     bool // a second connection scrapes during every slot's heartbeats
}

func workloads() []spec {
	small := workload.AdHocSpec{
		MinTasks: 2, MaxTasks: 6,
		MinTaskDur: 30 * time.Second, MaxTaskDur: 90 * time.Second,
		Demand: resource.New(1, 1024),
	}
	confirm := spec{
		name:  "confirm-heavy",
		why:   "16 small nodes kept busy with small jobs, so nearly every heartbeat confirms and fsyncs; the LP is under a tenth of ftrm's time and a planner change must leave this unmoved",
		nodes: 16, nodeVCores: 8,
		arriveSlots: 250, tailSlots: 100,
		setupWFs: 8, warmSlots: 40, wfEvery: 8, wfJobs: 5, deadlineFactor: 6,
		adhocEvery: 1, adhocBatch: 6, adhoc: small,
		scrapeEvery: 5,
	}
	scrape := confirm
	scrape.name = "scrape-mix"
	scrape.why = "the confirm-heavy writes unchanged plus a second connection scraping status and metrics beside every slot's heartbeats: reads contending with writes over a job table that grows to ~2k jobs"
	scrape.scraper = true
	return []spec{
		{
			name:  "plan-heavy",
			why:   "8 big nodes and ~10 live 12-job workflows with long windows: the LP replan is ~85 % of ftrm's time and heartbeats are a rounding error, so planner work shows here",
			nodes: 8, nodeVCores: 64,
			arriveSlots: 220, tailSlots: 100,
			setupWFs: 10, warmSlots: 20, wfEvery: 5, wfJobs: 12, deadlineFactor: 6,
			adhocEvery: 1, adhocBatch: 1, adhoc: small,
			scrapeEvery: 5,
		},
		confirm,
		{
			name:  "adhoc-burst",
			why:   "a deadline background near 40 % of capacity and 40 ad-hoc jobs every 5th slot offering ~70 % more: the gate turns a fifth away, so admission, drain folding and the ad-hoc journal carry the load",
			nodes: 8, nodeVCores: 16,
			arriveSlots: 250, tailSlots: 100,
			setupWFs: 8, warmSlots: 40, wfEvery: 6, wfJobs: 8, deadlineFactor: 6,
			adhocEvery: 5, adhocBatch: 40,
			adhoc: workload.AdHocSpec{
				MinTasks: 2, MaxTasks: 9,
				MinTaskDur: 60 * time.Second, MaxTaskDur: 180 * time.Second,
				Demand: resource.New(1, 1024),
			},
			scrapeEvery: 10,
		},
		scrape,
	}
}

type nodeSpec struct {
	id       string
	vcores   int64
	memoryMB int64
}

// slotLoad is what one slot submits, workflows first.
type slotLoad struct {
	wfs   []trace.WorkflowRecord
	adhoc []trace.AdHocRecord
}

// scenario is the full generated input of one run: the op list every
// pass replays. ftrm only ever sees these requests.
type scenario struct {
	spec
	nodes []nodeSpec
	setup []trace.WorkflowRecord // submitted in bulk before the first tick
	warm  []slotLoad             // warm-up slots, the untimed rest of set-up
	slots []slotLoad             // timed slots, in order
}

// generate builds the scenario for one workload from the seed. The same
// (spec, seed, seconds) always yields the same scenario.
func generate(sp spec, seed int64, seconds int) (*scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	arrive := sp.arriveSlots * seconds / refSeconds
	if arrive < 1 {
		arrive = 1
	}
	arrive += sp.warmSlots // submissions arrive through warm-up and timed phase alike
	all := make([]slotLoad, arrive+sp.tailSlots)
	sc := &scenario{spec: sp, warm: all[:sp.warmSlots], slots: all[sp.warmSlots:]}
	for i := 0; i < sp.nodes; i++ {
		sc.nodes = append(sc.nodes, nodeSpec{
			id:       fmt.Sprintf("n%03d", i),
			vcores:   sp.nodeVCores,
			memoryMB: sp.nodeVCores * memPerVCoreMB,
		})
	}

	// Shapes rotate so every seed runs the same mix; templates, task
	// counts, durations and random-DAG edges come from the seed.
	var shapes []workload.Shape
	for _, s := range []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage,
		workload.ShapeEpigenomics, workload.ShapeRandom, workload.ShapeCyberShake,
		workload.ShapeSipht, workload.ShapeChain,
	} {
		if s == workload.ShapeCyberShake && sp.wfJobs < 6 {
			continue
		}
		shapes = append(shapes, s)
	}
	// A deadline must fall inside the tail, with room for the last
	// confirmation to land.
	maxSpanSec := int64(sp.tailSlots-8) * int64(slotDur/time.Second)
	nWF := 0
	newWF := func() (trace.WorkflowRecord, error) {
		wf, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID:             fmt.Sprintf("wf%04d", nWF),
			Shape:          shapes[nWF%len(shapes)],
			Jobs:           sp.wfJobs,
			DeadlineFactor: sp.deadlineFactor,
		})
		if err != nil {
			return trace.WorkflowRecord{}, err
		}
		nWF++
		tr, err := trace.FromWorkload([]*workflow.Workflow{wf}, nil)
		if err != nil {
			return trace.WorkflowRecord{}, err
		}
		rec := tr.Workflows[0]
		if rec.DeadlineSec > maxSpanSec {
			rec.DeadlineSec = maxSpanSec
		}
		return rec, nil
	}
	for i := 0; i < sp.setupWFs; i++ {
		rec, err := newWF()
		if err != nil {
			return nil, err
		}
		sc.setup = append(sc.setup, rec)
	}

	nAdHoc := 0
	for s := 0; s < arrive; s++ {
		if sp.wfEvery > 0 && s%sp.wfEvery == 0 {
			rec, err := newWF()
			if err != nil {
				return nil, err
			}
			all[s].wfs = append(all[s].wfs, rec)
		}
		if sp.adhocEvery > 0 && s%sp.adhocEvery == 0 {
			as := sp.adhoc
			as.Count = sp.adhocBatch
			as.MeanInterarrival = time.Second // arrival times are unused: the slot is the arrival
			jobs, err := workload.GenerateAdHoc(rng, as)
			if err != nil {
				return nil, err
			}
			tr, err := trace.FromWorkload(nil, jobs)
			if err != nil {
				return nil, err
			}
			for _, rec := range tr.AdHoc {
				rec.ID = fmt.Sprintf("ah%05d", nAdHoc)
				rec.SubmitSec = 0
				nAdHoc++
				all[s].adhoc = append(all[s].adhoc, rec)
			}
		}
	}
	return sc, nil
}
