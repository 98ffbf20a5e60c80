package sched

import (
	"sort"
	"time"

	"flowtime/internal/resource"
)

// JobSpan records when one job of a prior workflow run started and ended,
// as offsets from that run's submission.
type JobSpan struct {
	Start time.Duration
	End   time.Duration
}

// PriorRun is one historical execution of a recurring workflow.
type PriorRun struct {
	// Spans maps job name to its observed span.
	Spans map[string]JobSpan
}

// History holds prior runs per workflow ID (recurring workflows share the
// ID across periods).
type History map[string][]PriorRun

// Morpheus reimplements the scheduling core of Morpheus (Jyothi et al.,
// "Morpheus: Towards Automated SLOs for Enterprise Clusters", OSDI 2016)
// as characterized by the paper: per-job deadlines are *inferred from prior
// runs* of the recurring workflow — without using the DAG's global
// structure — and jobs are packed into the planned-load skyline as
// reservations placed to minimize the peak. Leftover capacity goes to
// ad-hoc jobs in arrival order.
//
// The paper's critique (§I) is that the inference ignores how jobs depend
// on each other; when estimation errors shift a predecessor, the inferred
// windows of successors do not move, so reservations go stale and misses
// follow. That behaviour emerges naturally here.
type Morpheus struct {
	history History

	plan     map[string][]resource.Vector // jobID -> per-slot grants from planFrom
	planFrom int64
	load     []resource.Vector
}

var _ Scheduler = (*Morpheus)(nil)

// NewMorpheus returns a Morpheus scheduler drawing inference from history.
// A nil history is valid: inference then falls back to each job's provided
// decomposed window.
func NewMorpheus(history History) *Morpheus {
	return &Morpheus{history: history}
}

// Name implements Scheduler.
func (*Morpheus) Name() string { return "Morpheus" }

// Assign implements Scheduler.
func (m *Morpheus) Assign(ctx AssignContext) (map[string]resource.Vector, error) {
	if ctx.Changed || m.plan == nil {
		m.replan(ctx)
	}
	offset := ctx.Now - m.planFrom
	avail := ctx.Cluster.CapAt(ctx.Now)
	grants := make(map[string]resource.Vector, len(ctx.Jobs))

	// Serve planned reservations for ready deadline jobs.
	for _, j := range ctx.Jobs {
		if j.Kind != DeadlineJob || !j.Ready || j.Request.IsZero() {
			continue
		}
		slots, ok := m.plan[j.ID]
		if !ok || offset < 0 || offset >= int64(len(slots)) {
			continue
		}
		want := slots[offset].Min(j.Request)
		if g := avail.Take(want); !g.IsZero() {
			grants[j.ID] = g
		}
	}

	// Overdue deadline jobs (window passed, still unfinished) run ahead of
	// ad-hoc with whatever is left.
	for _, j := range ctx.Jobs {
		if j.Kind != DeadlineJob || !j.Ready || j.Request.IsZero() {
			continue
		}
		if _, planned := grants[j.ID]; planned {
			continue
		}
		if m.inferredDeadlineSlot(j, ctx.Cluster.SlotDur) <= ctx.Now {
			if g := avail.Take(j.Request); !g.IsZero() {
				grants[j.ID] = g
			}
		}
	}

	// Ad-hoc jobs take the leftovers in arrival order.
	for _, j := range sortJobs(ctx.Jobs, byArrival) {
		if j.Kind != AdHocJob || !j.Ready || j.Request.IsZero() {
			continue
		}
		if g := avail.Take(j.Request); !g.IsZero() {
			grants[j.ID] = g
		}
	}
	return grants, nil
}

// inferredWindow returns the job's window in slots [release, deadline)
// relative to the epoch, inferred from history when available and falling
// back to the decomposed window otherwise.
func (m *Morpheus) inferredWindow(j JobState, slotDur time.Duration) (int64, int64) {
	release := int64(j.Release / slotDur)
	deadline := int64(j.Deadline / slotDur)
	runs := m.history[j.WorkflowID]
	var starts, ends []time.Duration
	for _, run := range runs {
		if span, ok := run.Spans[j.JobName]; ok {
			starts = append(starts, span.Start)
			ends = append(ends, span.End)
		}
	}
	if len(starts) > 0 {
		// Morpheus-style inference: an early start percentile and a
		// conservative end percentile of the observed spans.
		sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		start := starts[len(starts)/4] // p25
		idx := (len(ends)*95 + 99) / 100
		if idx < 1 {
			idx = 1
		}
		end := ends[idx-1] // p95
		release = int64((time.Duration(j.Arrived) + start) / slotDur)
		deadline = int64((time.Duration(j.Arrived) + end) / slotDur)
	}
	if deadline <= release {
		deadline = release + 1
	}
	return release, deadline
}

func (m *Morpheus) inferredDeadlineSlot(j JobState, slotDur time.Duration) int64 {
	_, d := m.inferredWindow(j, slotDur)
	return d
}

// replan packs every live deadline job's reservation rectangle into the
// load skyline at the position (within its inferred window) that minimizes
// the resulting peak, earliest position on ties. This is the low-cost
// packing spirit of Morpheus's recurring reservations.
func (m *Morpheus) replan(ctx AssignContext) {
	m.planFrom = ctx.Now
	m.plan = make(map[string][]resource.Vector, len(ctx.Jobs))
	horizon := ctx.Cluster.Horizon - ctx.Now
	if horizon < 1 {
		horizon = 1
	}
	if horizon > 4096 {
		horizon = 4096
	}
	m.load = make([]resource.Vector, horizon)

	// Deterministic packing order: inferred deadline, then ID.
	type item struct {
		j        JobState
		rel, dl  int64
		durSlots int64
		height   resource.Vector
	}
	var items []item
	for _, j := range ctx.Jobs {
		if j.Kind != DeadlineJob || j.EstRemaining.IsZero() {
			continue
		}
		rel, dl := m.inferredWindow(j, ctx.Cluster.SlotDur)
		if rel < ctx.Now {
			rel = ctx.Now
		}
		if dl <= rel {
			dl = rel + 1
		}
		dur := j.MinSlots
		if dur < 1 {
			dur = 1
		}
		if dur > dl-rel {
			dur = dl - rel
		}
		// Height: the constant rate that finishes the remaining work within
		// the rectangle.
		height := resource.Vector{}
		for _, k := range resource.Kinds() {
			need := j.EstRemaining.Get(k)
			h := (need + dur - 1) / dur
			if hc := j.ParallelCap.Get(k); h > hc {
				h = hc
			}
			height = height.With(k, h)
		}
		items = append(items, item{j: j, rel: rel, dl: dl, durSlots: dur, height: height})
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].dl != items[b].dl {
			return items[a].dl < items[b].dl
		}
		return items[a].j.ID < items[b].j.ID
	})

	for _, it := range items {
		relOff := it.rel - ctx.Now
		dlOff := it.dl - ctx.Now
		if relOff < 0 {
			relOff = 0
		}
		if dlOff > horizon {
			dlOff = horizon
		}
		lastStart := dlOff - it.durSlots
		if lastStart < relOff {
			lastStart = relOff
		}
		bestStart, bestPeak := relOff, -1.0
		for s := relOff; s <= lastStart; s++ {
			peak := 0.0
			for t := s; t < s+it.durSlots && t < horizon; t++ {
				share := m.load[t].Add(it.height).DominantShare(ctx.Cluster.CapAt(ctx.Now + t))
				if share > peak {
					peak = share
				}
			}
			if bestPeak < 0 || peak < bestPeak {
				bestPeak, bestStart = peak, s
			}
		}
		slots := make([]resource.Vector, horizon)
		for t := bestStart; t < bestStart+it.durSlots && t < horizon; t++ {
			slots[t] = it.height
			m.load[t] = m.load[t].Add(it.height)
		}
		m.plan[it.j.ID] = slots
	}
}
