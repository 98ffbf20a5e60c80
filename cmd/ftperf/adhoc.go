package main

// The ad-hoc admission probe: hammer the lock-free admission queue from
// every core while a planner goroutine rebases it with fresh plan
// revisions, exactly the contention pattern of the production fast path
// (internal/adhoc, wired behind ftrm's -adhoc-gate). The numbers that
// matter for the perf trajectory:
//
//   - sustained admissions per second across all submitters — the gate
//     must absorb an ad-hoc flood without waking the LP (target ≥100k/s);
//   - admission latency percentiles *measured while replans run
//     concurrently* — an epoch swap must not stall submitters (target
//     p99 < 5ms);
//   - conservation across every drained epoch: the consumed totals the
//     planner folds into the next replan must equal the sum of the
//     charge log exactly, or the fast path leaked or double-counted
//     capacity under contention.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flowtime/internal/adhoc"
	"flowtime/internal/metrics"
	"flowtime/internal/resource"
)

type adhocReport struct {
	stamp

	// Probe configuration.
	Submitters      int   `json:"submitters"`
	WindowSlots     int64 `json:"window_slots"`
	RebaseEveryMS   int64 `json:"rebase_every_ms"`
	ProbeDurationMS int64 `json:"probe_duration_ms"`

	// Throughput: total admission decisions (admits + rejects) and the
	// admitted subset, per second of wall clock across all submitters.
	Admitted        int64   `json:"admitted"`
	Rejected        int64   `json:"rejected"`
	AdmitsPerSec    float64 `json:"admits_per_sec"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`

	// Admission latency while replans run concurrently.
	LatencyP50Micros  int64 `json:"latency_p50_micros"`
	LatencyP99Micros  int64 `json:"latency_p99_micros"`
	LatencyMaxMicros  int64 `json:"latency_max_micros"`
	LatencySamples    int   `json:"latency_samples"`
	ConcurrentRebases int64 `json:"concurrent_rebases"`

	// Drain accounting across every retired epoch.
	DrainedCharges int64 `json:"drained_charges"`
	DrainedVolume  int64 `json:"drained_volume_vcores"`

	// Verdicts (the probe's own pass/fail read on the numbers above; CI
	// keeps the JSON as an artifact either way).
	ThroughputOK   bool `json:"throughput_ok"`   // ≥100k admissions/s
	P99Bounded     bool `json:"p99_bounded"`     // p99 < 5ms under concurrent rebases
	ConservationOK bool `json:"conservation_ok"` // Σ charge log == consumed totals, every epoch
	ExactlyOnce    bool `json:"exactly_once"`    // admits counter == total drained charges
}

// adhocProbe measures the admission gate's fast path under full-core
// contention with a concurrent rebase loop, and cross-checks every
// drained epoch's charge log against its consumed totals.
func adhocProbe(budget time.Duration) (*adhocReport, error) {
	const (
		windowSlots = 256
		rebaseEvery = 2 * time.Millisecond
		latSample   = 8 // record every 8th submission's latency
	)
	workers := runtime.GOMAXPROCS(0)
	rep := &adhocReport{
		Submitters:      workers,
		WindowSlots:     windowSlots,
		RebaseEveryMS:   rebaseEvery.Milliseconds(),
		ProbeDurationMS: budget.Milliseconds(),
	}

	q := adhoc.New()
	// A generous leftover profile per revision: the probe measures the
	// admit path (counter charges + log append), not capacity exhaustion,
	// and each rebase replenishes the profile anyway.
	leftover := make([]resource.Vector, windowSlots)
	for i := range leftover {
		leftover[i] = resource.New(1<<40, 1<<40)
	}
	q.Rebase(1, 0, leftover)

	var (
		stop         atomic.Bool
		wg           sync.WaitGroup
		latMu        sync.Mutex
		latencies    []time.Duration
		conservation = true
		drains       int64
		volume       int64
	)

	// The planner: retire and republish epochs for the whole probe,
	// verifying conservation on every drain.
	rebaseDone := make(chan struct{})
	go func() {
		defer close(rebaseDone)
		rev := int64(2)
		for !stop.Load() {
			time.Sleep(rebaseEvery)
			d := q.Rebase(rev, rev*4, leftover) // sliding window, like a real replan
			rev++
			var fromLog []resource.Vector
			for _, ch := range d.Charges {
				drains++
				for off, v := range ch.Taken {
					slot := ch.From + int64(off) - d.From
					for int64(len(fromLog)) <= slot {
						fromLog = append(fromLog, resource.Vector{})
					}
					fromLog[slot] = fromLog[slot].Add(v)
					volume += v.Get(resource.VCores)
				}
			}
			for i, c := range d.Consumed {
				var logged resource.Vector
				if i < len(fromLog) {
					logged = fromLog[i]
				}
				if c != logged {
					conservation = false
				}
			}
		}
	}()

	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			req := adhoc.Request{
				Demand:  resource.New(4, 256),
				PerSlot: resource.New(1, 64),
			}
			for i := 0; !stop.Load(); i++ {
				// Window relative to the live epoch so requests stay
				// admissible across the sliding rebases.
				base := q.Rev() * 4
				req.Rel, req.Dl = base+int64(i%32), base+int64(i%32)+8
				if i%latSample == 0 {
					t0 := time.Now()
					q.Submit(req)
					local = append(local, time.Since(t0))
				} else {
					q.Submit(req)
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(w)
	}
	time.Sleep(budget)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	<-rebaseDone

	// Final drain picks up the last epoch's admissions so the
	// exactly-once cross-check covers every admit.
	final := q.Rebase(1<<30, 0, nil)
	for _, ch := range final.Charges {
		drains++
		for _, v := range ch.Taken {
			volume += v.Get(resource.VCores)
		}
	}

	st := q.Stats()
	rep.Admitted = st.Admitted
	rep.Rejected = st.Rejected
	rep.AdmitsPerSec = float64(st.Admitted) / elapsed.Seconds()
	rep.DecisionsPerSec = float64(st.Admitted+st.Rejected) / elapsed.Seconds()
	rep.ConcurrentRebases = st.Rebases
	ls := metrics.Describe(latencies)
	rep.LatencyP50Micros = ls.P50.Microseconds()
	rep.LatencyP99Micros = ls.P99.Microseconds()
	rep.LatencyMaxMicros = ls.Max.Microseconds()
	rep.LatencySamples = len(latencies)
	rep.DrainedCharges = drains
	rep.DrainedVolume = volume

	rep.ThroughputOK = rep.AdmitsPerSec >= 100_000
	rep.P99Bounded = ls.P99 < 5*time.Millisecond
	rep.ConservationOK = conservation
	rep.ExactlyOnce = drains == st.Admitted
	return rep, nil
}
