package rmserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flowtime/internal/rmproto"
)

// TestClientParsesRetryAfter proves the hint crosses the wire in both
// forms: the coarse Retry-After header and the millisecond-resolution
// retry_after_ms body field (which wins when both are present).
func TestClientParsesRetryAfter(t *testing.T) {
	var mode string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch mode {
		case "header":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"code":"overloaded","message":"shed"}`))
		case "body":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"code":"overloaded","message":"shed","retry_after_ms":1500}`))
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL, nil)
	mode = "header"
	_, err := c.Status(context.Background())
	if got := RetryAfterHint(err); got != 2*time.Second {
		t.Errorf("header-only hint = %v, want 2s (err=%v)", got, err)
	}
	mode = "body"
	_, err = c.Status(context.Background())
	if got := RetryAfterHint(err); got != 1500*time.Millisecond {
		t.Errorf("body hint = %v, want 1.5s (err=%v)", got, err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("503 overloaded response = %v, want ErrOverloaded match", err)
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := b.Delay(0)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 100ms]", d)
		}
	}
}

func TestRetryStopsOnSuccess(t *testing.T) {
	calls := 0
	err := RetryPolicy{Backoff: Backoff{Base: time.Microsecond}}.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Retry = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	calls := 0
	perm := &StatusError{StatusCode: http.StatusBadRequest, Message: "bad request"}
	err := RetryPolicy{Backoff: Backoff{Base: time.Microsecond}}.Do(context.Background(), func() error {
		calls++
		return perm
	})
	if !errors.Is(err, error(perm)) || calls != 1 {
		t.Errorf("Retry = %v after %d calls, want permanent error after 1", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := RetryPolicy{Backoff: Backoff{Base: time.Microsecond, MaxAttempts: 3}}.Do(context.Background(), func() error {
		calls++
		return errors.New("transient")
	})
	if err == nil || calls != 3 {
		t.Errorf("Retry = %v after %d calls, want error after exactly 3", err, calls)
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	// Cancel from inside the retried op: deterministic (no timing race),
	// and the hour-long base delay guarantees that if cancellation did not
	// interrupt the backoff sleep the test would time out, not flake.
	err := RetryPolicy{Backoff: Backoff{Base: time.Hour, MaxAttempts: -1}}.Do(ctx, func() error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Retry = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cancel must interrupt the backoff sleep)", calls)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"network", errors.New("connection refused"), true},
		{"5xx", &StatusError{StatusCode: http.StatusInternalServerError}, true},
		{"4xx", &StatusError{StatusCode: http.StatusBadRequest}, false},
		{"unknown-node 404", &StatusError{StatusCode: http.StatusNotFound, Code: rmproto.CodeUnknownNode}, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	// The server's Retry-After hint must stretch the sleep beyond the
	// (tiny) configured backoff. One retry with a 120ms hint on a 1µs
	// base: elapsed time proves which delay was used.
	hint := 120 * time.Millisecond
	calls := 0
	start := time.Now()
	err := RetryPolicy{Backoff: Backoff{Base: time.Microsecond, MaxAttempts: 2}}.Do(context.Background(), func() error {
		calls++
		if calls == 1 {
			return &StatusError{StatusCode: http.StatusServiceUnavailable, Code: rmproto.CodeOverloaded, RetryAfter: hint}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil || calls != 2 {
		t.Fatalf("Retry = %v after %d calls, want nil after 2", err, calls)
	}
	if elapsed < hint {
		t.Errorf("retry slept only %v, want >= the server's Retry-After hint %v", elapsed, hint)
	}
}

func TestRetryAfterHintExtraction(t *testing.T) {
	if got := RetryAfterHint(&OverloadedError{Reason: "queue_full", RetryAfter: 250 * time.Millisecond}); got != 250*time.Millisecond {
		t.Errorf("hint from OverloadedError = %v, want 250ms", got)
	}
	if got := RetryAfterHint(&StatusError{StatusCode: 503, Code: rmproto.CodeOverloaded, RetryAfter: time.Second}); got != time.Second {
		t.Errorf("hint from StatusError = %v, want 1s", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Errorf("hint from plain error = %v, want 0", got)
	}
}

func TestOverloadedErrorMatchesSentinel(t *testing.T) {
	local := error(&OverloadedError{Reason: "priority", RetryAfter: time.Second})
	wire := error(&StatusError{StatusCode: http.StatusServiceUnavailable, Code: rmproto.CodeOverloaded})
	for _, err := range []error{local, wire} {
		if !errors.Is(err, ErrOverloaded) {
			t.Errorf("%T does not match ErrOverloaded", err)
		}
	}
	if errors.Is(error(&StatusError{StatusCode: 503}), ErrOverloaded) {
		t.Error("plain 503 must not match ErrOverloaded")
	}
}

func TestRetryBudgetCapsAmplification(t *testing.T) {
	rb := NewRetryBudget(3)
	before := RetryBudgetExhaustedTotal()
	calls := 0
	err := RetryPolicy{
		Backoff: Backoff{Base: time.Microsecond, MaxAttempts: -1},
		Budget:  rb,
	}.Do(context.Background(), func() error {
		calls++
		return errors.New("transient")
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("Do = %v, want ErrRetryBudgetExhausted", err)
	}
	// 1 initial attempt + 3 budgeted retries.
	if calls != 4 {
		t.Errorf("calls = %d, want 4 (initial + 3 budgeted retries)", calls)
	}
	if got := RetryBudgetExhaustedTotal() - before; got != 1 {
		t.Errorf("exhaustion counter advanced by %d, want 1", got)
	}
	// Successes refill the bucket a fraction at a time.
	for i := 0; i < 20; i++ {
		rb.Deposit()
	}
	if tok := rb.tokens; tok < 1.9 || tok > 2.1 {
		t.Errorf("tokens after 20 deposits = %v, want ~2 (0.1 per success)", tok)
	}
}

func TestStatusErrorUnknownNodeIs(t *testing.T) {
	err := error(&StatusError{StatusCode: http.StatusNotFound, Code: rmproto.CodeUnknownNode, Message: "unknown node"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Error("StatusError with unknown_node code does not match ErrUnknownNode")
	}
	other := error(&StatusError{StatusCode: http.StatusNotFound, Message: "not found"})
	if errors.Is(other, ErrUnknownNode) {
		t.Error("plain 404 must not match ErrUnknownNode")
	}
}
