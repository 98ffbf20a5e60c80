package rmserver

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"flowtime/internal/rmproto"
)

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
		{"commit-failed 503", &StatusError{StatusCode: http.StatusServiceUnavailable, Code: rmproto.CodeCommitFailed}, true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
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
