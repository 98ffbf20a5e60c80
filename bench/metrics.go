package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"flowtime/internal/rmproto"
)

// metric is one reported number. BENCHMARK.json lists the same names and
// units; TestBenchmarkJSONMatches keeps the two from drifting.
type metric struct {
	name, unit string
	value      float64
}

type metrics []metric

func (m *metrics) add(name, unit string, v float64) { *m = append(*m, metric{name, unit, v}) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return ms(sum(ds)) / float64(len(ds))
}

// pct is the nearest-rank percentile of ds (sorted in place).
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[min(len(ds)-1, int(p*float64(len(ds))))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// elementMin is the per-op minimum across passes. Op i is the same
// request against the same RM state in every pass, and noise on a shared
// box only ever adds, so the minimum is the closest view of the
// program's own cost.
func elementMin(vs [][]time.Duration) []time.Duration {
	out := slices.Clone(vs[0])
	for _, v := range vs[1:] {
		for i, d := range v {
			if d < out[i] {
				out[i] = d
			}
		}
	}
	return out
}

// quality holds the exact, scheduling-quality results of a run; they are
// counts, identical in every pass.
type quality struct {
	deadlineMet, deadlineDue      int
	adhocAdmitted, adhocAttempted int
	adhocTurnaround, wfComplete   float64 // mean slots
	jobs                          int
}

// jobDoneSlot is the slot at which the RM saw a job's last confirmation.
func jobDoneSlot(j rmproto.JobStatus) int64 {
	return j.CompletedSec / int64(slotDur/time.Second)
}

// check verifies one pass's final status against the scenario and
// derives the quality results. Any problem makes the run incorrect.
func check(sc *scenario, pr *playResult, final rmproto.StatusResponse) (quality, []string) {
	var q quality
	var problems []string
	bad := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if pr.failed > 0 {
		bad("%d of %d operations failed, first: %v", pr.failed, pr.attempted, pr.firstErr)
	}
	if final.Faults.RequeuedQuanta != 0 {
		bad("%d quanta requeued: a lease expired, so the run measured recovery", final.Faults.RequeuedQuanta)
	}
	// A ladder step is designed behaviour, not a wrong answer: on the
	// unmodified tree about one seed in five trips one min-max fallback in
	// ~90 replans. A run where fallbacks are common, or that reached the
	// LP-free rung, measured a degraded planner and is refused.
	if d := final.Degradation; d != nil {
		replans := int64(1)
		if final.Plan != nil {
			replans = max(1, final.Plan.Rev)
		}
		if d.GreedyFallbacks+d.InvalidPlans != 0 || d.MinMaxFallbacks > max(2, replans/20) {
			bad("planner stepped down its ladder in %d min-max, %d greedy, %d invalid plans of %d replans: the run measured a degraded planner",
				d.MinMaxFallbacks, d.GreedyFallbacks, d.InvalidPlans, replans)
		}
	}

	wfDone := map[string]int64{}
	var adhocSum float64
	for _, j := range final.Jobs {
		q.jobs++
		if j.Delivered.VCores > j.Total.VCores || j.Delivered.MemoryMB > j.Total.MemoryMB {
			bad("job %s delivered %+v of %+v", j.ID, j.Delivered, j.Total)
		}
		if j.State != "completed" || j.Delivered != j.Total {
			bad("job %s ended %s with %+v of %+v delivered", j.ID, j.State, j.Delivered, j.Total)
			continue
		}
		done := jobDoneSlot(j)
		if j.Kind == "adhoc" {
			adhocSum += float64(done - pr.adhocSubmitSlot[j.ID])
		} else if done > wfDone[j.WorkflowID] {
			wfDone[j.WorkflowID] = done
		}
	}
	q.adhocAttempted, q.adhocAdmitted = pr.adhocAttempted, pr.adhocAdmitted
	q.adhocTurnaround = ratio(adhocSum, float64(pr.adhocAdmitted))

	endSec := final.Slot * int64(slotDur/time.Second)
	var wfSum float64
	each := func(id string, spanSec int64) {
		done, ok := wfDone[id]
		if !ok {
			bad("workflow %s has no completed job", id)
			return
		}
		submit := pr.wfSubmitSlot[id]
		wfSum += float64(done - submit)
		deadlineSec := submit*int64(slotDur/time.Second) + spanSec
		if deadlineSec > endSec {
			return
		}
		q.deadlineDue++
		// The RM sees a completion one slot after the work ran and grants
		// that slot as grace (rmserver's own missed-deadline rule).
		if (done-1)*int64(slotDur/time.Second) <= deadlineSec {
			q.deadlineMet++
		}
	}
	nWF := 0
	for _, rec := range sc.setup {
		each(rec.ID, rec.DeadlineSec-rec.SubmitSec)
		nWF++
	}
	for _, sl := range sc.warm {
		for _, rec := range sl.wfs {
			each(rec.ID, rec.DeadlineSec-rec.SubmitSec)
			nWF++
		}
	}
	for _, sl := range sc.slots {
		for _, rec := range sl.wfs {
			each(rec.ID, rec.DeadlineSec-rec.SubmitSec)
			nWF++
			if _, ok := pr.wfGrantOp[rec.ID]; !ok {
				bad("workflow %s was never granted a quantum", rec.ID)
			}
		}
	}
	q.wfComplete = ratio(wfSum, float64(nWF))
	return q, problems
}

// sameRun is the determinism guard: per-op minima are only valid over
// identical work, so every pass must have seen the same decisions in the
// same slots and ended in the same state.
func sameRun(name string, ref, other *playResult, refFinal, otherFinal rmproto.StatusResponse) error {
	for i := range ref.digest {
		if i >= len(other.digest) || ref.digest[i] != other.digest[i] {
			where := "set-up"
			if i > 0 {
				where = fmt.Sprintf("timed slot %d", i-1)
			}
			return fmt.Errorf("%s pass diverged from the first pass at %s: the RM returned different grants or admissions for the same requests", name, where)
		}
	}
	if ref.confirmed != other.confirmed || ref.granted != other.granted ||
		ref.adhocAdmitted != other.adhocAdmitted || ref.bestEffort != other.bestEffort {
		return fmt.Errorf("%s pass counts differ: confirmed %d/%d granted %d/%d admitted %d/%d",
			name, other.confirmed, ref.confirmed, other.granted, ref.granted, other.adhocAdmitted, ref.adhocAdmitted)
	}
	if a, b := refFinal.Plan, otherFinal.Plan; a == nil || b == nil || a.Rev != b.Rev || a.DiffsApplied != b.DiffsApplied {
		return fmt.Errorf("%s pass ended at a different plan revision: %+v vs %+v", name, b, a)
	}
	if a, b := refFinal.Degradation, otherFinal.Degradation; a == nil || b == nil || *a != *b {
		return fmt.Errorf("%s pass did different LP work: %+v vs %+v", name, b, a)
	}
	if err := sameJobs(refFinal.Jobs, otherFinal.Jobs); err != nil {
		return fmt.Errorf("%s pass against the first: %w", name, err)
	}
	return nil
}

// timing holds the per-op-min view of the timed passes.
type timing struct {
	minLat    []time.Duration // main connection
	minScrape []time.Duration // second connection
	minSlot   []time.Duration
	byKind    [numOpKinds][]time.Duration // minLat split by op kind
}

func newTiming(passes []*passResult) timing {
	var lat, scr, slot [][]time.Duration
	for _, p := range passes {
		lat = append(lat, p.lat)
		scr = append(scr, p.scrapeLat)
		slot = append(slot, p.slotWall)
	}
	t := timing{minLat: elementMin(lat), minScrape: elementMin(scr), minSlot: elementMin(slot)}
	for i, k := range passes[0].kinds {
		t.byKind[k] = append(t.byKind[k], t.minLat[i])
	}
	return t
}

// endToEnd computes the bounded metrics: the ones that repeat on a
// shared box. Besides set-up time (the contract's one mandatory timing)
// they are exact counts — scheduling quality and the I/O a slot costs —
// and ftrm's memory high-water mark. The timings a user feels are in
// pathTimings; on this box they swing 30-50 % for minutes at a time, so
// they are reported without a bound (see README.md, "Measured spread").
func endToEnd(sc *scenario, passes []*passResult, q quality) metrics {
	var m metrics
	nSlots := float64(len(sc.slots))
	var setups []time.Duration
	var rss []float64
	for _, p := range passes {
		setups = append(setups, p.setup)
		rss = append(rss, p.rssMB)
	}
	slices.Sort(rss)
	ref := passes[0]
	m.add("setup_s", "s", slices.Min(setups).Seconds())
	m.add("deadline_met_frac", "ratio", ratio(float64(q.deadlineMet), float64(q.deadlineDue)))
	m.add("adhoc_admitted_frac", "ratio", ratio(float64(q.adhocAdmitted), float64(q.adhocAttempted)))
	m.add("adhoc_turnaround_slots_mean", "slots", q.adhocTurnaround)
	m.add("wf_complete_slots_mean", "slots", q.wfComplete)
	m.add("wal_kb_per_slot", "KB", float64(ref.walBytes)/1024/nSlots)
	m.add("fsyncs_per_slot", "count", float64(ref.fsyncs)/nSlots)
	m.add("wire_kb_per_slot", "KB", float64(ref.reqBytes+ref.respBytes)/1024/nSlots)
	m.add("rm_peak_rss_mb", "MB", rss[len(rss)/2])
	return m
}

// pathTimings computes what a user of the RM feels, from the per-op-min
// vector: the whole path over HTTP against the real ftrm.
func pathTimings(sc *scenario, passes []*passResult, t timing) metrics {
	var m metrics
	nSlots := float64(len(sc.slots))
	var recovers, cpus []time.Duration
	for _, p := range passes {
		recovers = append(recovers, p.recover)
		cpus = append(cpus, p.cpu)
	}
	m.add("path.slots_per_s", "1/s", ratio(nSlots, sum(t.minSlot).Seconds()))
	m.add("path.tick_ms_mean", "ms", meanMS(t.byKind[opTick]))
	m.add("path.heartbeat_ms_mean", "ms", meanMS(t.byKind[opHeartbeat]))
	m.add("path.submit_ms_mean", "ms", meanMS(slices.Concat(t.byKind[opSubmitWF], t.byKind[opSubmitAdHoc])))
	m.add("path.status_ms_mean", "ms", meanMS(slices.Concat(t.byKind[opStatus], t.byKind[opMetrics], t.minScrape)))
	m.add("path.recover_s", "s", slices.Min(recovers).Seconds())
	m.add("path.rm_cpu_ms_per_slot", "ms", ms(slices.Min(cpus))/nSlots)
	return m
}

// layerTimes is each layer's own time over the traced timed phase.
type layerTimes struct {
	// Σ span durations by kind, and Σ self time (duration minus the part
	// child spans cover) by kind.
	total, self [numSpanKinds]time.Duration
	count       [numSpanKinds]int
	// store time by the kind of the top-level span it happened under
	storeIn [numSpanKinds]time.Duration
	byKind  [numSpanKinds][]time.Duration
}

func newLayerTimes(rec *recorder, first int) layerTimes {
	var lt layerTimes
	spans := rec.spans[first:]
	child := make([]time.Duration, len(spans))
	top := func(i int) int {
		for spans[i].parent >= int32(first) {
			i = int(spans[i].parent) - first
		}
		return i
	}
	for i, sp := range spans {
		d := sp.end - sp.start
		lt.total[sp.kind] += d
		lt.count[sp.kind]++
		lt.byKind[sp.kind] = append(lt.byKind[sp.kind], d)
		if sp.parent >= int32(first) {
			child[int(sp.parent)-first] += d
		}
		if sp.kind == spWrite || sp.kind == spFsync {
			lt.storeIn[spans[top(i)].kind] += d
		}
	}
	for i, sp := range spans {
		lt.self[sp.kind] += sp.end - sp.start - child[i]
	}
	return lt
}

// perLayer computes the single-layer metrics from the traced pass, plus
// the wire and harness rows that need the timed passes beside it.
func perLayer(sc *scenario, passes []*passResult, t timing, tr *tracedResult) (metrics, budget) {
	m := pathTimings(sc, passes, t)
	lt := newLayerTimes(tr.rec, tr.firstTimed)
	sec := func(d time.Duration) float64 { return d.Seconds() }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// The server's own decompose and diff encode run inside its spans;
	// the harness timed a duplicate of each. Attribute one copy to its
	// layer and take it out of rmserver's self time.
	dupDecompose, dupEncode := lt.total[spDecompose], lt.total[spEncode]
	submitWFSelf := max(0, lt.self[spSubmitWF]-dupDecompose)
	tickSelf := max(0, lt.self[spTick]-dupEncode)

	m.add("rmserver.tick_ms_p50", "ms", ms(pct(lt.byKind[spTick], 0.50)))
	m.add("rmserver.tick_ms_p99", "ms", ms(pct(lt.byKind[spTick], 0.99)))
	m.add("rmserver.tick_ms_max", "ms", ms(pct(lt.byKind[spTick], 1)))
	m.add("rmserver.tick_self_s", "s", sec(tickSelf))
	m.add("rmserver.heartbeat_s", "s", sec(lt.total[spHeartbeat]))
	m.add("rmserver.heartbeat_ms_p50", "ms", ms(pct(lt.byKind[spHeartbeat], 0.50)))
	m.add("rmserver.heartbeat_ms_p99", "ms", ms(pct(lt.byKind[spHeartbeat], 0.99)))
	m.add("rmserver.submit_wf_ms_mean", "ms", meanMS(lt.byKind[spSubmitWF]))
	m.add("rmserver.submit_adhoc_ms_mean", "ms", meanMS(lt.byKind[spSubmitAdHoc]))
	m.add("rmserver.submit_adhoc_ms_p99", "ms", ms(pct(lt.byKind[spSubmitAdHoc], 0.99)))
	m.add("rmserver.submit_adhoc_self_s", "s", sec(lt.self[spSubmitAdHoc]))
	m.add("rmserver.status_ms_p99", "ms", ms(pct(slices.Concat(lt.byKind[spStatus], lt.byKind[spMetrics]), 0.99)))
	m.add("rmserver.recover_replay_s", "s", sec(tr.replay))
	m.add("rmserver.jobs_tracked", "count", float64(len(tr.final.Jobs)))
	m.add("rmserver.quanta_granted", "count", float64(tr.granted))
	m.add("rmserver.quanta_confirmed", "count", float64(tr.confirmed))
	m.add("rmserver.quanta_requeued", "count", float64(tr.final.Faults.RequeuedQuanta))

	m.add("core.assign_s", "s", sec(lt.total[spAssign]))
	m.add("core.assign_self_s", "s", sec(lt.self[spAssign]))
	m.add("core.replans", "count", float64(tr.stats.Replans))
	m.add("core.replan_ms_mean", "ms", meanMS(tr.planner.replanDur))
	m.add("core.replan_ms_max", "ms", ms(pct(tr.planner.replanDur, 1)))
	m.add("core.stage_a_skipped", "count", float64(tr.stats.StageASkipped))
	m.add("core.adhoc_folds", "count", float64(tr.stats.AdHocFolds))
	m.add("core.fallbacks", "count", float64(tr.degrade.MinMaxFallbacks+tr.degrade.GreedyFallbacks))
	// Ticks from a workflow's submission through the heartbeat that
	// carried its first quantum: 1 means the next replan placed work at
	// once. On a live RM each is a whole slot, so this, not milliseconds,
	// is what submit -> first grant costs a user.
	var waited, granted int
	for wf, from := range tr.wfSubmitOp {
		to, ok := tr.wfGrantOp[wf]
		if !ok {
			continue // never granted: check() has already made the run incorrect
		}
		granted++
		for _, k := range tr.kinds[from : to+1] {
			if k == opTick {
				waited++
			}
		}
	}
	m.add("core.first_grant_slots_mean", "slots", ratio(float64(waited), float64(granted)))

	lp := tr.stats.LP
	m.add("lp.solve_s", "s", sec(lt.total[spLPSolve]))
	m.add("lp.rounds", "count", float64(tr.stats.LPRounds))
	m.add("lp.pivots", "count", float64(lp.Pivots))
	m.add("lp.warm_starts", "count", float64(lp.WarmStarts))
	m.add("lp.cold_starts", "count", float64(lp.ColdStarts))
	m.add("lp.warm_hit_frac", "ratio", ratio(float64(lp.WarmStarts), float64(lp.WarmStarts+lp.ColdStarts)))
	m.add("lp.refactors", "count", float64(lp.Refactors))

	m.add("plan.diffs", "count", float64(tr.planner.diffs))
	m.add("plan.slot_ops", "count", float64(tr.planner.slotOps))
	m.add("plan.diff_bytes", "bytes", float64(tr.planner.diffBytes))
	m.add("plan.encode_s", "s", sec(dupEncode))

	var gate rmproto.AdHocQueueStatus
	if p := tr.final.Plan; p != nil && p.AdHoc != nil {
		gate = *p.AdHoc
	}
	m.add("adhoc.admitted", "count", float64(gate.Admitted))
	m.add("adhoc.rejected", "count", float64(gate.Rejected))
	m.add("adhoc.rebases", "count", float64(gate.Rebases))

	m.add("store.fsync_s", "s", sec(lt.total[spFsync]))
	m.add("store.fsyncs", "count", float64(lt.count[spFsync]))
	m.add("store.fsync_ms_p50", "ms", ms(pct(lt.byKind[spFsync], 0.50)))
	m.add("store.fsync_ms_p99", "ms", ms(pct(lt.byKind[spFsync], 0.99)))
	m.add("store.write_s", "s", sec(lt.total[spWrite]))
	m.add("store.wal_records", "count", float64(tr.walRecords))
	m.add("store.wal_bytes", "bytes", float64(tr.walBytes))
	m.add("store.records_per_fsync", "ratio", ratio(float64(tr.walRecords), float64(tr.fsyncs)))

	m.add("deadline.decompose_s", "s", sec(dupDecompose))
	m.add("deadline.decompose_us_mean", "us", ratio(us(dupDecompose), float64(len(tr.decomposeDur))))
	m.add("deadline.workflows", "count", float64(len(tr.decomposeDur)))
	m.add("deadline.best_effort", "count", float64(tr.bestEffort))

	// The wire: what HTTP, JSON and the loopback add on top of the same
	// calls made in-process.
	httpOps := sum(t.minLat) + sum(t.minScrape)
	inProc := sum(tr.lat) + sum(tr.scrapeLat)
	wire := httpOps - inProc
	m.add("rmproto.wire_s", "s", sec(wire))
	m.add("rmproto.wire_frac", "ratio", ratio(sec(wire), sec(httpOps)))
	m.add("rmproto.req_bytes", "bytes", float64(passes[0].reqBytes))
	m.add("rmproto.resp_bytes", "bytes", float64(passes[0].respBytes))

	var walls, refs []time.Duration
	for _, p := range passes {
		walls = append(walls, p.wall)
		refs = append(refs, p.refLoop)
	}
	fastest, slowest := slices.Min(walls), slices.Max(walls)
	b := budget{
		rmserver: submitWFSelf + tickSelf + lt.self[spSubmitAdHoc] + lt.self[spHeartbeat] + lt.self[spStatus] + lt.self[spMetrics],
		core:     lt.self[spAssign],
		lp:       lt.total[spLPSolve],
		plan:     dupEncode,
		store:    lt.total[spWrite] + lt.total[spFsync],
		deadline: dupDecompose,
		// The traced wall holds the duplicated decompose and encode once
		// more than the program does; they are tracing overhead, not a
		// layer's time.
		wall:       tr.wall - dupDecompose - dupEncode,
		tick:       lt.total[spTick] - dupEncode,
		tickAssign: lt.total[spAssign],
		tickStore:  lt.storeIn[spTick],
		tickSelf:   tickSelf,
	}
	overhead := time.Duration(len(tr.rec.spans)-tr.firstTimed)*tr.spanCost + dupDecompose + dupEncode
	m.add("harness.driver_s", "s", sec(sum(t.minSlot)-sum(t.minLat)))
	m.add("harness.pass_spread_frac", "ratio", ratio(sec(slowest-fastest), sec(fastest)))
	m.add("harness.ref_loop_ms", "ms", ms(slices.Min(refs)))
	m.add("harness.trace_overhead_frac", "ratio", ratio(sec(overhead), sec(tr.wall)))
	m.add("harness.layer_sum_frac", "ratio", ratio(sec(b.layers()), sec(b.wall)))
	return m, b
}

// budget is where the traced pass's timed phase went: each layer's own
// time, and the parts of a tick.
type budget struct {
	wall                                      time.Duration
	rmserver, core, lp, plan, store, deadline time.Duration
	tick, tickAssign, tickStore, tickSelf     time.Duration
}

func (b budget) layers() time.Duration {
	return b.rmserver + b.core + b.lp + b.plan + b.store + b.deadline
}

// print writes two tables, both against the traced wall: the layer rows,
// then the tick budget (tick_s and the parts it is made of).
func (b budget) print(w io.Writer) {
	row := func(name string, d time.Duration) {
		fmt.Fprintf(w, "  %-22s %9.3f s  %5.1f %%\n", name, d.Seconds(), 100*ratio(d.Seconds(), b.wall.Seconds()))
	}
	fmt.Fprintf(w, "layer budget (traced pass, timed phase %.3f s):\n", b.wall.Seconds())
	row("rmserver (self)", b.rmserver)
	row("core (assign self)", b.core)
	row("lp (solve)", b.lp)
	row("plan (diff encode)", b.plan)
	row("store (write+fsync)", b.store)
	row("deadline (decompose)", b.deadline)
	row("sum of layers", b.layers())
	fmt.Fprintf(w, "tick budget:\n")
	row("rmserver.tick_s", b.tick)
	row("= core.assign_s", b.tickAssign)
	row("+ store inside ticks", b.tickStore)
	row("+ plan.encode_s", b.plan)
	row("+ rmserver.tick_self_s", b.tickSelf)
}
