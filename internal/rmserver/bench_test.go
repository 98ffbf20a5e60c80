package rmserver

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// completedSizes are the histories the read-path benchmarks run over; the
// live table holds 20 jobs throughout, so a cost that is O(live) reads
// the same at both sizes.
var completedSizes = []struct {
	name string
	n    int
}{{"2k_completed", 2000}, {"20k_completed", 20000}}

// BenchmarkStatusIncremental is one GET /v1/status by a client that has
// seen the archive already: the steady state of every scraper.
func BenchmarkStatusIncremental(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).rm.Handler())
			defer ts.Close()
			c := NewClient(ts.URL, ts.Client())
			ctx := context.Background()
			if _, err := c.Status(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.Status(ctx)
				if err != nil || len(st.Jobs) != size.n+20 {
					b.Fatalf("Status: %d jobs, %v", len(st.Jobs), err)
				}
			}
		})
	}
}

// BenchmarkStatusFull is the same request from a client with no cursor —
// a bare curl, or the first request after an RM restart — which receives
// the whole archive.
func BenchmarkStatusFull(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).rm.Handler())
			defer ts.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := NewClient(ts.URL, ts.Client()).Status(ctx)
				if err != nil || len(st.Jobs) != size.n+20 {
					b.Fatalf("Status: %d jobs, %v", len(st.Jobs), err)
				}
			}
		})
	}
}

// BenchmarkTick is one scheduling slot over 20 live jobs behind a history
// of completed ones.
func BenchmarkTick(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			c := completedRM(b, sched.NewFIFO(), size.n, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.rm.Tick(c.now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalEncode encodes the record sequence of a recorded mixed
// run (recordMixedRun: every record variant) the way journalLocked does —
// one codec, one reused buffer. B/record is the payload size; json_B/record
// is what the same records took in the JSON form the codec replaced.
func BenchmarkJournalEncode(b *testing.B) {
	_, payloads := recordMixedRun(b)
	var codec rmstate.Codec
	recs := make([]rmstate.Record, len(payloads))
	var size, jsonSize int
	for i, p := range payloads {
		rec, err := codec.Decode(p)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
		size += len(p)
		jsonSize += len(mustJSON(rec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range recs {
			if _, err := codec.Encode(&recs[r]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	b.ReportMetric(float64(size)/float64(len(recs)), "B/record")
	b.ReportMetric(float64(jsonSize)/float64(len(recs)), "json_B/record")
}

// BenchmarkReplayDecode decodes the same sequence the way replay does.
func BenchmarkReplayDecode(b *testing.B) {
	_, payloads := recordMixedRun(b)
	var codec rmstate.Codec
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := codec.Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payloads)), "ns/record")
	b.ReportMetric(float64(size)/float64(len(payloads)), "B/record")
}

// firstTickArcCeiling holds the 9,600-job first tick's planner to the
// arcs its max-flow searches may scan, stages A and B summed over the
// kinds: 13,920,805 when it was set, plus 25 %. Stage A as its definition
// reads (ShortfallReference) scans about 880 million. The exact skyline,
// by decomposition, keeps the tick at 14,477,765; peeled level by level by
// Newton steps it scanned 19.5 million.
const firstTickArcCeiling = 17_400_000

// firstTickCellCeiling holds the 9,600-job first tick's published plan to
// the allocation cells its rows hold, summed over the jobs: 125,059 when
// it was set, plus 25 %. Rows that span the whole plan instead of their
// job's window hold 1,295,190.
const firstTickCellCeiling = 156_000

// firstTickLeaseCeiling holds the 9,600-job first tick to the leases its
// record grants: 3,758 when it was set, plus 25 %. Placing each grant's
// volume first-fit kind by kind, instead of whole tasks and one rest,
// grants 5,031.
const firstTickLeaseCeiling = 4_700

// firstTickByteCeiling holds the 9,600-job first tick to the bytes it
// allocates: 33.3 MB when it was set, plus 14 %, the margin the ceilings
// before it kept. A replan that grows its network's arrays and its kinds'
// job lists one append at a time, and peels stage B's levels by Newton
// steps, allocates 47.6 MB; one that lays out a second network per kind when it drops the deadline slack, as that tick's
// does, 70.1 MB; and one whose stage B lays out stage A's network again
// 91.3 MB. All were measured on go1.24.0; the module and CI build with
// go1.22.
const firstTickByteCeiling = 38_000_000

// handOffBeatByteCeiling holds a heartbeat that hands offers off at 1,024
// nodes to the bytes it allocates, on average over a run's second
// heartbeat round: 1,831 at 4,800 jobs and 1,921 at 1,200 when it was
// set, plus 25 % of the larger. A heartbeat that built its node set afresh,
// over itself and the nodes not yet heard, allocated 39,257 and 59,658:
// that grows with the nodes, the ceiling does not.
const handOffBeatByteCeiling = 2_400

// BenchmarkFirstTickAtScale is the first tick of a FlowTime RM, ad-hoc
// gate on, that a burst of workflows meets on a large cluster: 1,024
// nodes of 16 vcores and 64 GiB, 60 s slots, and 100, 400 or 800
// generated 12-job workflows submitted at slot 0 outside the timer. Each
// iteration times that tick on a fresh cluster. From the RM's tick ring it
// reports the first tick's phases — the replan's stage A, stage B and
// repair, the rest of the decision, and placement — the time it spent in
// the flow planner (stages A and B), and the steady tick after one
// heartbeat round. It also reports that heartbeat round, one Status()
// after the steady tick, and a second round, whose confirms complete jobs
// while the steady tick's offers are out: the mean time and bytes
// allocated of its heartbeats that hand offers off, which fail any run
// over handOffBeatByteCeiling, and the 4,800-job run if there are none (the
// 9,600-job cluster is full at the steady tick: no offer is out). And it
// reports the replans whose deadline slack was dropped, the first tick's
// arcs scanned, max flows started from zero and resumed, and skyline
// levels, summed over the kinds, the bytes it allocated, the cells of the
// plan it published and the leases it granted, which fail the 9,600-job
// run over firstTickArcCeiling, firstTickByteCeiling, firstTickCellCeiling
// and firstTickLeaseCeiling. All are counts, so the guards hold on any
// machine.
func BenchmarkFirstTickAtScale(b *testing.B) {
	for _, wfs := range []int{100, 400, 800} {
		b.Run(fmt.Sprintf("%d_jobs", 12*wfs), func(b *testing.B) {
			b.StopTimer()
			recs := scaleWorkflows(b, wfs)
			var first, steady TickRecord
			var beat, status, handOffBeat time.Duration
			dropped, arcs, maxFlows, resumed, levels, cells, leases := 0, 0, 0, 0, 0, 0, 0
			var handOffBeats, handOffBytes, tickBytes uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				ft := core.New(core.DefaultConfig())
				c := newCluster(b, Config{Scheduler: ft, AdHocGate: true, SlotDur: time.Minute}, nil)
				for n := range 1024 {
					c.register(fmt.Sprintf("n%04d", n), 16, 64*1024)
				}
				for _, rec := range recs {
					if _, err := c.rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: rec}); err != nil {
						b.Fatalf("SubmitWorkflow(%s): %v", rec.ID, err)
					}
				}
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.StartTimer()
				c.tick()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				tickBytes += ms.TotalAlloc - before
				c.rm.mu.Lock()
				leases = len(c.rm.st.Leases()) // none were out before the tick
				c.rm.mu.Unlock()
				dropped += ft.Stats().SlackDropped
				levels = ft.Stats().LPRounds
				cells = 0
				for _, j := range ft.LivePlan().Jobs {
					cells += len(j.Alloc)
				}
				start := time.Now()
				c.beatAll(nil)
				beat += time.Since(start)
				c.tick()
				start = time.Now()
				c.rm.Status()
				status += time.Since(start)
				for _, id := range c.nodes {
					d, l := c.rm.HandOffs()
					runtime.ReadMemStats(&ms)
					alloc := ms.TotalAlloc
					start = time.Now()
					c.beat(id, c.held[id])
					took := time.Since(start)
					runtime.ReadMemStats(&ms)
					if d2, l2 := c.rm.HandOffs(); d2+l2 > d+l {
						handOffBeats++
						handOffBeat += took
						handOffBytes += ms.TotalAlloc - alloc
					}
				}
				ticks := c.rm.Ticks()
				first, steady = addTicks(first, ticks[0]), addTicks(steady, ticks[1])
				arcs, maxFlows, resumed = 0, 0, 0
				for _, w := range ticks[0].Replan.Work {
					arcs += w.ArcsScanned
					maxFlows += w.MaxFlows
					resumed += w.Resumed
				}
			}
			perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			r := first.Replan
			b.ReportMetric(perOp(r.StageA+r.StageB), "lp_ms")
			b.ReportMetric(perOp(r.StageA), "stage_a_ms")
			b.ReportMetric(perOp(r.StageB), "stage_b_ms")
			b.ReportMetric(perOp(r.Repair), "repair_ms")
			b.ReportMetric(perOp(first.Decide), "decide_ms")
			b.ReportMetric(perOp(first.Place), "place_ms")
			b.ReportMetric(perOp(tickTime(steady)), "steady_tick_ms")
			b.ReportMetric(perOp(beat), "beat_round_ms")
			b.ReportMetric(perOp(status), "status_ms")
			beatBytes := handOffBytes / max(handOffBeats, 1)
			b.ReportMetric(float64(handOffBeat.Microseconds())/float64(max(handOffBeats, 1)), "handoff_beat_us")
			b.ReportMetric(float64(beatBytes), "handoff_beat_B")
			b.ReportMetric(float64(handOffBeats)/float64(b.N), "handoff_beats")
			b.ReportMetric(float64(dropped)/float64(b.N), "slack_dropped")
			b.ReportMetric(float64(arcs), "arcs")
			b.ReportMetric(float64(maxFlows), "max_flows")
			b.ReportMetric(float64(resumed), "resumed")
			b.ReportMetric(float64(levels), "levels")
			b.ReportMetric(float64(tickBytes)/float64(b.N), "first_tick_B")
			b.ReportMetric(float64(cells), "plan_cells")
			b.ReportMetric(float64(leases), "leases")
			if wfs == 800 && arcs > firstTickArcCeiling {
				b.Fatalf("the first tick scanned %d arcs, over the ceiling of %d", arcs, firstTickArcCeiling)
			}
			if wfs == 800 && tickBytes/uint64(b.N) > firstTickByteCeiling {
				b.Fatalf("the first tick allocated %d B, over the ceiling of %d", tickBytes/uint64(b.N), firstTickByteCeiling)
			}
			if wfs == 800 && cells > firstTickCellCeiling {
				b.Fatalf("the first tick's plan holds %d cells, over the ceiling of %d", cells, firstTickCellCeiling)
			}
			if wfs == 800 && leases > firstTickLeaseCeiling {
				b.Fatalf("the first tick granted %d leases, over the ceiling of %d", leases, firstTickLeaseCeiling)
			}
			if wfs == 400 && handOffBeats == 0 {
				b.Fatal("no heartbeat of the second round handed an offer off")
			}
			if beatBytes > handOffBeatByteCeiling {
				b.Fatalf("a hand-off heartbeat allocated %d B, over the ceiling of %d", beatBytes, handOffBeatByteCeiling)
			}
		})
	}
}

// addTicks sums two tick records' phase times.
func addTicks(a, t TickRecord) TickRecord {
	a.Decide += t.Decide
	a.Place += t.Place
	a.Journal += t.Journal
	a.Commit += t.Commit
	a.Replan.StageA += t.Replan.StageA
	a.Replan.StageB += t.Replan.StageB
	a.Replan.Repair += t.Replan.Repair
	return a
}

// tickTime is the whole of a tick: its phases and its replan's stages.
func tickTime(t TickRecord) time.Duration {
	return t.Decide + t.Place + t.Journal + t.Commit + t.Replan.StageA + t.Replan.StageB + t.Replan.Repair
}

// scaleWorkflows generates n 12-job workflows from seed 1, the DAG shapes
// rotating and each deadline 6× its critical path.
func scaleWorkflows(tb testing.TB, n int) []trace.WorkflowRecord {
	tb.Helper()
	shapes := []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage,
		workload.ShapeEpigenomics, workload.ShapeRandom, workload.ShapeCyberShake,
		workload.ShapeSipht, workload.ShapeChain,
	}
	rng := rand.New(rand.NewSource(1))
	wfs := make([]*workflow.Workflow, n)
	for i := range wfs {
		wf, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID: fmt.Sprintf("wf%04d", i), Shape: shapes[i%len(shapes)], Jobs: 12, DeadlineFactor: 6,
		})
		if err != nil {
			tb.Fatal(err)
		}
		wfs[i] = wf
	}
	tr, err := trace.FromWorkload(wfs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Workflows
}
