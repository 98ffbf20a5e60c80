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
