package rmserver

// Overload protection for the RM's HTTP front door. The RM is the
// single point every agent heartbeats through and every client submits
// to; under a demand spike or a recovering partition the arrival rate
// can exceed what the scheduler core sustains, and an unbounded server
// converts that into unbounded latency for everyone — including the
// confirm traffic that keeps leases from being falsely reclaimed.
//
// The admission layer bounds the damage with three mechanisms:
//
//   - per-class concurrency limits: submissions and confirm-path calls
//     (heartbeats, registrations) draw from separate slot pools, so a
//     submission flood cannot starve the heartbeat path;
//   - bounded queues with deadline-aware rejection: a request that
//     cannot get a slot waits at most admissionMaxWait behind at most
//     admissionQueueDepth peers, then is shed with a coded `overloaded`
//     error and a Retry-After hint instead of holding a connection open
//     forever;
//   - priority shedding: when the confirm class itself has waiters,
//     new submissions are shed immediately ("priority") — confirms and
//     heartbeats stay ahead of submissions, because losing a confirm
//     costs a lease-expiry requeue while losing a submission costs only
//     a client retry.
//
// Shedding is applied at the HTTP handler layer, not inside Server
// methods, so in-process callers (tests, embedded sims) are never
// throttled.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"flowtime/internal/rmproto"
)

// The admission gate's limits, fixed for every RM that sets
// Config.Overload.
const (
	// submitConcurrency caps in-flight submission requests.
	submitConcurrency = 16
	// confirmConcurrency caps in-flight heartbeat/register requests. It
	// is deliberately the larger pool: the confirm path is what keeps
	// leases alive.
	confirmConcurrency = 64
	// admissionQueueDepth caps how many requests may wait for a slot per
	// class. Arrivals beyond it are shed immediately with reason
	// "queue_full".
	admissionQueueDepth = 64
	// admissionMaxWait bounds how long a queued request waits for a slot
	// before being shed with reason "queue_timeout". This is the
	// deadline-aware part: a request that would wait longer than the
	// client's own retry timer is better shed now, with a hint, than
	// served late.
	admissionMaxWait = 200 * time.Millisecond
	// shedRetryAfter is the backoff hint handed to shed clients.
	shedRetryAfter = 500 * time.Millisecond
)

// Admission classes. Submissions and confirm-path traffic are isolated
// so overload in one cannot queue behind the other.
const (
	classSubmit  = "submit"
	classConfirm = "confirm"
)

// classLimiter is one class's slot pool: a buffered channel holding the
// concurrency tokens plus a waiter count implementing the bounded queue.
type classLimiter struct {
	slots    chan struct{}
	waiters  atomic.Int64
	inflight atomic.Int64
}

func newClassLimiter(concurrency int) *classLimiter {
	l := &classLimiter{slots: make(chan struct{}, concurrency)}
	for i := 0; i < concurrency; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// admission is the server's overload gate: one slot pool per class, and
// the queue depth, wait bound and Retry-After hint it sheds by.
type admission struct {
	submit     *classLimiter
	confirm    *classLimiter
	queueDepth int64
	maxWait    time.Duration
	retryAfter time.Duration

	shedTotal atomic.Int64
	mu        sync.Mutex
	shedBy    map[string]int64
}

// newAdmission returns a gate with the given limits; New passes the
// constants above.
func newAdmission(submit, confirm int, queueDepth int64, maxWait, retryAfter time.Duration) *admission {
	return &admission{
		submit:     newClassLimiter(submit),
		confirm:    newClassLimiter(confirm),
		queueDepth: queueDepth,
		maxWait:    maxWait,
		retryAfter: retryAfter,
		shedBy:     make(map[string]int64),
	}
}

func (a *admission) limiter(class string) *classLimiter {
	if class == classSubmit {
		return a.submit
	}
	return a.confirm
}

func (a *admission) shed(reason string) error {
	a.shedTotal.Add(1)
	a.mu.Lock()
	a.shedBy[reason]++
	a.mu.Unlock()
	return &OverloadedError{Reason: reason, RetryAfter: a.retryAfter}
}

// acquire admits one request of the given class, returning the release
// func, or sheds it with an *OverloadedError. ctx cancellation while
// queued counts as a shed (the client gave up; the slot is not needed).
func (a *admission) acquire(ctx context.Context, class string) (func(), error) {
	l := a.limiter(class)

	// Priority shedding: a submission arriving while the confirm class
	// already has queued waiters is sacrificed outright. Serving it
	// would burn scheduler time the confirm path is visibly short of.
	if class == classSubmit && a.confirm.waiters.Load() > 0 {
		return nil, a.shed("priority")
	}

	// Fast path: a free slot admits without queueing.
	select {
	case <-l.slots:
		l.inflight.Add(1)
		return func() { l.inflight.Add(-1); l.slots <- struct{}{} }, nil
	default:
	}

	// Bounded queue: beyond queueDepth waiters the request is shed
	// immediately — an unbounded queue is just latency with extra steps.
	if l.waiters.Add(1) > a.queueDepth {
		l.waiters.Add(-1)
		return nil, a.shed("queue_full")
	}
	defer l.waiters.Add(-1)

	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case <-l.slots:
		l.inflight.Add(1)
		return func() { l.inflight.Add(-1); l.slots <- struct{}{} }, nil
	case <-t.C:
		return nil, a.shed("queue_timeout")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// status snapshots the shed counters for /v1/status and /metrics.
func (a *admission) status() *rmproto.OverloadStatus {
	a.mu.Lock()
	by := make(map[string]int64, len(a.shedBy))
	for k, v := range a.shedBy {
		by[k] = v
	}
	a.mu.Unlock()
	return &rmproto.OverloadStatus{
		ShedTotal:       a.shedTotal.Load(),
		ShedByReason:    by,
		QueueDepth:      a.submit.waiters.Load() + a.confirm.waiters.Load(),
		SubmitInflight:  a.submit.inflight.Load(),
		ConfirmInflight: a.confirm.inflight.Load(),
		RetryAfterMs:    a.retryAfter.Milliseconds(),
	}
}
