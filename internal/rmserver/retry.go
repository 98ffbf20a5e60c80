package rmserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"

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
	}
	return false
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
