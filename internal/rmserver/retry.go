package rmserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flowtime/internal/rmproto"
)

// ErrUnknownNode is reported when the RM rejects a heartbeat because it
// does not know the node (never registered, expired for silence, or the
// RM restarted and lost its in-memory state). Node agents should treat it
// as a signal to re-register, not as a transient failure to retry.
var ErrUnknownNode = errors.New("rmserver: unknown node")

// ErrNotLeader is reported when a mutation reaches an RM that is not
// the current primary (a follower, or a primary fenced by a higher
// epoch). Agents should redirect to the leader hint or rotate through
// their RM list and re-register.
var ErrNotLeader = errors.New("rmserver: not the leader")

// ErrCommitFailed is reported when the RM could not make a mutation's
// WAL record durable (disk fault). The mutation must not be assumed to
// have taken effect; callers back off and retry.
var ErrCommitFailed = errors.New("rmserver: wal commit failed")

// ErrOverloaded is reported when the RM sheds a request under overload
// (bounded admission queue full, deadline-aware wait exceeded, or
// priority shedding). The request did not take effect; clients honor
// the Retry-After hint and spend retry budget before trying again.
var ErrOverloaded = errors.New("rmserver: overloaded")

// ErrRetryBudgetExhausted is reported when a retry loop stops early
// because its shared retry budget ran dry — the anti-amplification
// guard: a fleet of clients retrying into an overloaded or failing RM
// must shed its own retries rather than multiply the load.
var ErrRetryBudgetExhausted = errors.New("rmserver: retry budget exhausted")

// OverloadedError is the server-side form of ErrOverloaded, carrying
// the shed reason and the backoff hint. errors.Is(err, ErrOverloaded)
// matches it.
type OverloadedError struct {
	// Reason is the shed class: "queue_full", "queue_timeout", "priority".
	Reason string
	// RetryAfter is how long the client should wait before retrying.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("rmserver: overloaded (%s); retry after %v", e.Reason, e.RetryAfter)
}

// Is matches ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// NotLeaderError is the server-side form of ErrNotLeader, carrying the
// redirect hint. errors.Is(err, ErrNotLeader) matches it.
type NotLeaderError struct {
	// Leader is the URL this node believes the leader is at; may be "".
	Leader string
	// Fenced is true when this node was the primary and has been deposed.
	Fenced bool
}

func (e *NotLeaderError) Error() string {
	role := "follower"
	if e.Fenced {
		role = "fenced ex-primary"
	}
	if e.Leader != "" {
		return fmt.Sprintf("rmserver: not the leader (%s); leader at %s", role, e.Leader)
	}
	return fmt.Sprintf("rmserver: not the leader (%s)", role)
}

// Is matches ErrNotLeader.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// StatusError is an RM API error that carries the HTTP status and the
// machine-readable code from the wire. It unwraps to the matching
// sentinel (ErrUnknownNode, ErrNotLeader, ErrCommitFailed) when the
// code says so, enabling errors.Is across the HTTP boundary.
type StatusError struct {
	StatusCode int
	Code       string
	Message    string
	// Leader is the leader hint from a not_leader response.
	Leader string
	// RetryAfter is the server's backoff hint, parsed from the
	// Retry-After header or the body's retry_after_ms (whichever the
	// transport preserved); 0 when the response carried none.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("rmserver: %d: %s", e.StatusCode, e.Message)
	}
	return fmt.Sprintf("rmserver: unexpected status %d", e.StatusCode)
}

// Is maps wire codes back to their sentinel errors.
func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrUnknownNode:
		return e.Code == rmproto.CodeUnknownNode
	case ErrNotLeader:
		return e.Code == rmproto.CodeNotLeader
	case ErrCommitFailed:
		return e.Code == rmproto.CodeCommitFailed
	case ErrOverloaded:
		return e.Code == rmproto.CodeOverloaded
	}
	return false
}

// RetryAfterHint extracts the server's backoff hint from an error,
// local (OverloadedError) or wire-form (StatusError); 0 when the error
// carries none.
func RetryAfterHint(err error) time.Duration {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// LeaderHint extracts the leader URL from a not-leader error, local or
// wire-form; "" when the error carries none.
func LeaderHint(err error) string {
	var nle *NotLeaderError
	if errors.As(err, &nle) {
		return nle.Leader
	}
	var se *StatusError
	if errors.As(err, &se) && se.Code == rmproto.CodeNotLeader {
		return se.Leader
	}
	return ""
}

// Backoff is a capped exponential backoff with jitter, shared by the RM
// client and the node agent for all idempotent control-plane calls.
// The zero value uses the defaults documented on each field.
type Backoff struct {
	// Base is the first retry delay (default 100ms).
	Base time.Duration
	// Max caps the delay growth (default 5s).
	Max time.Duration
	// Factor multiplies the delay each attempt (default 2).
	Factor float64
	// Jitter is the fraction of each delay drawn uniformly at random,
	// in [0,1] (default 0.2). Jitter desynchronizes agents that all lost
	// the RM at the same instant.
	Jitter float64
	// MaxAttempts bounds the total tries; 0 means 4, negative means
	// retry until the context is cancelled.
	MaxAttempts int
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.2
	}
	if b.MaxAttempts == 0 {
		b.MaxAttempts = 4
	}
	return b
}

// Delay returns the backoff before retry number attempt (0-based), with
// jitter applied.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		d = d * (1 - b.Jitter + b.Jitter*rand.Float64())
	}
	return time.Duration(d)
}

// RetryBudget is a token bucket shared by the retry loops of one
// client (or one agent): each retry spends a token, each success earns
// a fraction back. When an RM is down or shedding, a budget-less fleet
// multiplies offered load by its retry count at the worst moment; the
// budget caps that amplification — sustained failure drains the bucket
// and further retries are refused until successes refill it.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	earn   float64
}

// NewRetryBudget returns a budget holding at most max tokens (and
// starting full); max <= 0 means 10. Each success deposits 0.1 tokens,
// so the steady-state retry rate is capped at ~10% of the success rate.
func NewRetryBudget(max float64) *RetryBudget {
	if max <= 0 {
		max = 10
	}
	return &RetryBudget{tokens: max, max: max, earn: 0.1}
}

// Spend takes one token for a retry, reporting false (and counting an
// exhaustion) when the bucket is dry.
func (rb *RetryBudget) Spend() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		retryBudgetExhausted.Add(1)
		return false
	}
	rb.tokens--
	return true
}

// Deposit credits a success, refilling the bucket toward its cap.
func (rb *RetryBudget) Deposit() {
	rb.mu.Lock()
	rb.tokens += rb.earn
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.mu.Unlock()
}

// retryBudgetExhausted counts, process-wide, retries refused for lack
// of budget. Any RM embedding this package (including a follower whose
// replicator client runs in-process) reports it via /metrics.
var retryBudgetExhausted atomic.Int64

// RetryBudgetExhaustedTotal returns the process-wide count of retries
// refused because a RetryBudget ran dry.
func RetryBudgetExhaustedTotal() int64 { return retryBudgetExhausted.Load() }

// RetryPolicy is the client-side retry configuration: exponential
// backoff with jitter and a shared retry budget. The zero value is four
// attempts under the default backoff, no budget.
type RetryPolicy struct {
	Backoff Backoff
	// Budget, when non-nil, is consulted before every retry (not the
	// first attempt); exhaustion stops the loop with
	// ErrRetryBudgetExhausted joined onto the last error.
	Budget *RetryBudget
}

// Do runs op under the policy until it succeeds, returns a permanent
// error, exhausts MaxAttempts or the retry budget, or ctx is cancelled.
// Between attempts it sleeps the larger of the backoff delay and the
// server's Retry-After hint.
func (p RetryPolicy) Do(ctx context.Context, op func() error) error {
	b := p.Backoff.withDefaults()
	var err error
	for attempt := 0; ; attempt++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		err = op()
		if err == nil {
			if p.Budget != nil {
				p.Budget.Deposit()
			}
			return nil
		}
		if !Retryable(err) {
			return err
		}
		if b.MaxAttempts > 0 && attempt+1 >= b.MaxAttempts {
			return err
		}
		if p.Budget != nil && !p.Budget.Spend() {
			return errors.Join(ErrRetryBudgetExhausted, err)
		}
		d := b.Delay(attempt)
		if hint := RetryAfterHint(err); hint > d {
			d = hint
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Retryable reports whether err is worth retrying: network failures and
// server-side (5xx) errors are; client-side (4xx) rejections — bad
// requests, unknown node, duplicates — are permanent and need a different
// response than repetition.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode >= http.StatusInternalServerError
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level failure: connection refused, reset, EOF
}
