package rmserver

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// The shape of BenchmarkPathAtScale's run: pathWorkflows generated 12-job
// workflows, pathPerSlot of them submitted at each slot from 0 on, and a
// burst of pathBurst ad-hoc jobs at every pathBurstEvery-th slot until the
// last workflow is in, on pathNodes nodes of 16 vcores and 64 GiB.
const (
	pathWorkflows  = 200
	pathPerSlot    = 10
	pathBurst      = 40
	pathBurstEvery = 5
	pathNodes      = 64
)

// pathFsyncCeiling holds a heartbeat round of BenchmarkPathAtScale to the
// fsyncs it may cost, on average over the run: a heartbeat journals its
// confirms and hand-offs and leaves them to ride the next commit, so a
// round costs none when it was set. A heartbeat that committed its own
// records would cost up to one per node, 64 a round.
const pathFsyncCeiling = 1

// pathWALByteCeiling holds BenchmarkPathAtScale to the WAL bytes it
// journals per slot, on average over the run: 4,314 when it was set
// (461,598 over 107 slots), plus 25 %.
const pathWALByteCeiling = 5_400

// phaseSumBounds are the bounds BenchmarkPathAtScale holds the tick ring's
// phase sum to, as a fraction of the tick's wall time over the run: the
// phases are disjoint and, with the replan's stages, add up to the tick.
var phaseSumBounds = [2]float64{0.90, 1.10}

// BenchmarkPathAtScale drives a FlowTime RM, ad-hoc gate on, over a store
// that fsyncs every commit (the newCluster harness with a durable store)
// through a stream of workflows and ad-hoc bursts until every workflow
// has completed, one slot of 60 s at a time: the submissions due, a tick,
// then every node's heartbeat. Per workflow it reports the slots from its
// submission to its admission into the plan (the first tick whose
// published plan holds one of its jobs), to its first grant and to its
// completion, as means over the workflows; per tick, the tick ring's
// phase sum against the tick's wall time, over the run and at its lowest
// and highest tick, failing the run when the first is outside
// phaseSumBounds; the ad-hoc jobs the gate admitted and rejected; the
// fsyncs per heartbeat round, failing the run over pathFsyncCeiling; and
// the WAL's KB per slot, failing it over pathWALByteCeiling. It fails a
// run in which a job never completes, or whose store, recovered as a
// follower at the end, does not hold the live state byte for byte, leases
// and in-flight volume included. It reports the jobs that missed their
// deadline without failing on them: the stream overloads the cluster
// (91,738 vcore-slots of deadline work, submitted over 20 slots, on 1,024
// vcores), so 1,232 of its 2,400 jobs miss. Everything but the phase sum
// is a count, so the guards hold on any machine.
func BenchmarkPathAtScale(b *testing.B) {
	recs := scaleWorkflows(b, pathWorkflows)
	slot := func(sec int64) int64 { return sec / int64(time.Minute/time.Second) }
	var admitSlots, grantSlots, completeSlots, admittedAH, rejectedAH, rounds, roundFsyncs, walBytes, missed float64
	var phases, walls time.Duration
	lowest, highest := math.Inf(1), 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft := core.New(core.DefaultConfig())
		c := newCluster(b, Config{Scheduler: ft, AdHocGate: true, SlotDur: time.Minute}, &durable{})
		for n := range pathNodes {
			c.register(fmt.Sprintf("n%03d", n), 16, 64*1024)
		}
		submitted, admitted, firstGrant := map[string]int64{}, map[string]int64{}, map[string]int64{}
		wfOf := map[string]string{} // job ID → workflow ID
		for s := int64(0); s < 5000; s++ {
			for _, rec := range recs[min(int(s)*pathPerSlot, len(recs)):min(int(s+1)*pathPerSlot, len(recs))] {
				if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: rec}); err != nil {
					b.Fatalf("SubmitWorkflow(%s): %v", rec.ID, err)
				}
				submitted[rec.ID] = s
			}
			if s%pathBurstEvery == 0 && len(submitted) < len(recs) {
				for a := range pathBurst {
					resp, err := c.rm.SubmitAdHoc(rmproto.SubmitAdHocRequest{Job: trace.AdHocRecord{
						ID: fmt.Sprintf("a%d-%d", s, a), Tasks: 8, TaskDurSec: 240, DemandVCores: 1, DemandMemMB: 2048,
					}})
					switch {
					case err != nil:
						b.Fatalf("SubmitAdHoc: %v", err)
					case resp.Accepted:
						admittedAH++
					default:
						rejectedAH++
					}
				}
			}
			for _, j := range c.rm.Status().Jobs {
				if j.WorkflowID != "" {
					wfOf[j.ID] = j.WorkflowID
				}
			}

			start := time.Now()
			c.tick()
			wall := time.Since(start)
			ticks := c.rm.Ticks()
			phase := tickTime(ticks[len(ticks)-1])
			phases, walls = phases+phase, walls+wall
			lowest, highest = min(lowest, phase.Seconds()/wall.Seconds()), max(highest, phase.Seconds()/wall.Seconds())
			now := slot(int64(c.now.Sub(clockStart) / time.Second))
			for id := range ft.LivePlan().Jobs {
				if wf := wfOf[id]; wf != "" {
					if _, ok := admitted[wf]; !ok {
						admitted[wf] = now
					}
				}
			}

			before := c.store.Stats().Fsyncs
			c.beatAll(func(_ string, launch []rmproto.Quantum) {
				for _, q := range launch {
					if wf := wfOf[q.JobID]; wf != "" {
						if _, ok := firstGrant[wf]; !ok {
							firstGrant[wf] = now
						}
					}
				}
			})
			roundFsyncs += float64(c.store.Stats().Fsyncs - before)
			rounds++
			if len(submitted) == len(recs) && allCompleted(c.rm.Status()) {
				break
			}
		}

		done := map[string]int64{}
		for _, j := range c.rm.Status().Jobs {
			if j.WorkflowID != "" {
				if j.State != "completed" {
					b.Fatalf("job %s of %s never completed", j.ID, j.WorkflowID)
				}
				if j.Missed {
					missed++
				}
				done[j.WorkflowID] = max(done[j.WorkflowID], slot(j.CompletedSec))
			}
		}
		for wf, s := range submitted {
			a, okA := admitted[wf]
			g, okG := firstGrant[wf]
			if !okA || !okG {
				b.Fatalf("workflow %s: admitted %v, granted %v", wf, okA, okG)
			}
			admitSlots += float64(a - s)
			grantSlots += float64(g - s)
			completeSlots += float64(done[wf] - s)
		}
		walBytes += float64(c.store.Stats().WALBytes)
		live, replayed, _ := liveAndReplayed(b, c.rm)
		if !bytes.Equal(live.snapshot, replayed.snapshot) || !reflect.DeepEqual(live.inFlight, replayed.inFlight) {
			b.Fatal("replaying the log does not rebuild the live state")
		}
	}
	wfs := float64(b.N * len(recs))
	b.ReportMetric(admitSlots/wfs, "wf_admit_slots")
	b.ReportMetric(grantSlots/wfs, "wf_first_grant_slots")
	b.ReportMetric(completeSlots/wfs, "wf_complete_slots")
	b.ReportMetric(missed/float64(b.N), "jobs_missed")
	frac := phases.Seconds() / walls.Seconds()
	b.ReportMetric(frac, "phase_sum_frac")
	b.ReportMetric(lowest, "phase_sum_frac_min")
	b.ReportMetric(highest, "phase_sum_frac_max")
	b.ReportMetric(admittedAH/float64(b.N), "adhoc_admitted")
	b.ReportMetric(rejectedAH/float64(b.N), "adhoc_rejected")
	perRound := roundFsyncs / rounds
	b.ReportMetric(perRound, "fsyncs_per_round")
	b.ReportMetric(rounds/float64(b.N), "slots")
	walPerSlot := walBytes / rounds
	b.ReportMetric(walPerSlot/1024, "wal_kb_per_slot")
	if frac < phaseSumBounds[0] || frac > phaseSumBounds[1] {
		b.Fatalf("the tick ring's phases sum to %.3f of the ticks' wall time, outside %v", frac, phaseSumBounds)
	}
	if perRound > pathFsyncCeiling {
		b.Fatalf("a heartbeat round cost %.2f fsyncs, over the ceiling of %d", perRound, pathFsyncCeiling)
	}
	if walPerSlot > pathWALByteCeiling {
		b.Fatalf("the WAL grew %.0f B a slot, over the ceiling of %d", walPerSlot, pathWALByteCeiling)
	}
}
