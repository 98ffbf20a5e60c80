package rmserver

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"flowtime/internal/rmproto"
)

// AgentConfig parameterizes a node-manager agent (see RunAgent).
type AgentConfig struct {
	// NodeID identifies the node to the RM; required.
	NodeID string
	// Capacity is the node's advertised capacity; required.
	Capacity rmproto.Resources
	// RMs lists candidate RM URLs for a replicated deployment. When a
	// mutation is rejected with not_leader, or the current RM stops
	// answering, the agent follows the leader hint (if any) or rotates to
	// the next URL and re-registers. Empty means the client's base URL is
	// the only RM.
	RMs []string
	// Backoff paces the retries of registration and of failed
	// heartbeats. The zero value uses defaults.
	Backoff Backoff
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Backoff is the agent's retry pacing: the delay before retry n (0-based)
// is Base·2ⁿ capped at Max, less a random share of up to a fifth so that
// agents which lost the RM at the same instant do not retry in lockstep.
// The zero value doubles from 100ms to 5s.
type Backoff struct {
	// Base is the first retry delay (default 100ms).
	Base time.Duration
	// Max caps the delay (default 5s).
	Max time.Duration
}

// Every delay grows by backoffFactor per retry, and backoffJitter of it
// is drawn at random.
const (
	backoffFactor = 2
	backoffJitter = 0.2
)

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	return b
}

// Delay returns the backoff before retry number attempt (0-based): between
// 1-backoffJitter and 1 times min(Base·2^attempt, Max).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= backoffFactor
	}
	d = min(d, float64(b.Max))
	return time.Duration(d * (1 - backoffJitter + backoffJitter*rand.Float64()))
}

// failoverAfter is how many heartbeat attempts in a row may fail at one
// RM before an agent that knows another gives up on it. Each attempt ends
// by one heartbeat interval and the retries between them back off, so a
// lossy but live link rides out several intervals of loss before the
// agent pays for a re-registration elsewhere.
const failoverAfter = 8

// rmRotation tracks which RM the agent currently talks to, across the
// configured candidate list. Jumping to a leader hint re-aligns the
// rotation index when the hint is in the list, so a later blind rotate
// starts from the leader, not from a stale position.
type rmRotation struct {
	client *Client
	urls   []string
	idx    int
}

func newRotation(client *Client, urls []string) *rmRotation {
	r := &rmRotation{client: client, urls: urls}
	for i, u := range urls {
		if u == client.Base() {
			r.idx = i
			break
		}
	}
	return r
}

func (r *rmRotation) cur() *Client { return r.client }

// rotate advances to the next candidate RM; a single-RM rotation is a
// no-op. Reports whether the target actually changed.
func (r *rmRotation) rotate() bool {
	if len(r.urls) < 2 {
		return false
	}
	r.idx = (r.idx + 1) % len(r.urls)
	if r.urls[r.idx] == r.client.Base() {
		return false
	}
	r.client = r.client.WithBase(r.urls[r.idx])
	return true
}

// jump retargets to the hinted leader URL; "" or the current target is
// a no-op. Reports whether the target changed.
func (r *rmRotation) jump(url string) bool {
	if url == "" || url == r.client.Base() {
		return false
	}
	r.client = r.client.WithBase(url)
	for i, u := range r.urls {
		if u == url {
			r.idx = i
			break
		}
	}
	return true
}

// redirect follows a not-leader hint when the error carries one,
// otherwise rotates blindly. Reports whether the target changed.
func (r *rmRotation) redirect(err error) bool {
	if r.jump(LeaderHint(err)) {
		return true
	}
	return r.rotate()
}

// RunAgent runs the node-manager control loop used by cmd/ftnode: it
// registers with the RM, heartbeats on the interval the RM dictates,
// "executes" the slot-sized leases it receives by holding them for one
// heartbeat period, and confirms them on the next heartbeat.
//
// Every call to the RM is one attempt, and every retry is one more turn
// of this loop, so the agent has at most one request in flight and its
// offered load cannot multiply when the RM struggles. An attempt ends by
// a deadline: a heartbeat by the interval the RM dictated, when the next
// one is due anyway, and a registration by rmproto.DefaultSlot, the
// interval assumed before any RM has named one. An RM that takes the
// connection and never answers therefore costs an attempt, not the agent.
// A failed heartbeat is tried again after the backoff delay, capped at one
// interval.
//
// An unknown-node rejection (RM restarted or evicted us for silence)
// triggers re-registration with the in-flight lease set dropped — the RM
// has already requeued or will expire those quanta, and confirming them
// after eviction would be stale anyway. A not-leader rejection (the RM
// was deposed, or we were pointed at a follower) redirects to the leader
// hint or the next configured RM, again dropping the lease set — the new
// primary requeued our leases at promotion, and its quantum-ID sequence
// may reuse IDs we hold. After failoverAfter failed heartbeats in a row
// the agent moves to the next configured RM, and an RM that is down
// entirely is retried, rotating through the list, until ctx is cancelled.
// RunAgent returns only when ctx is done or a registration is refused.
func RunAgent(ctx context.Context, client *Client, cfg AgentConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	backoff := cfg.Backoff.withDefaults()
	rot := newRotation(client, cfg.RMs)

	interval, err := registerUntilAccepted(ctx, rot, cfg, backoff, logf)
	if err != nil {
		return err
	}
	reRegister := func() error {
		var err error
		interval, err = registerUntilAccepted(ctx, rot, cfg, backoff, logf)
		return err
	}

	next := time.NewTimer(interval)
	defer next.Stop()

	// Leases received last heartbeat are "executed" during this interval
	// and confirmed on the next one.
	var running []string
	failures := 0   // consecutive failed heartbeat attempts
	hbDown := false // logged the heartbeat outage already
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-next.C:
		}
		hctx, cancel := context.WithTimeout(ctx, interval)
		resp, err := rot.cur().Heartbeat(hctx, rmproto.HeartbeatRequest{
			NodeID:    cfg.NodeID,
			Completed: running,
		})
		cancel()
		switch {
		case errors.Is(err, ErrUnknownNode):
			logf("ftnode %s: RM does not know us (restart or eviction); re-registering", cfg.NodeID)
			running = nil // our leases died with the old registration
			failures, hbDown = 0, false
			if err := reRegister(); err != nil {
				return err
			}
		case errors.Is(err, ErrNotLeader):
			rot.redirect(err)
			logf("ftnode %s: RM is not the leader; following to %s and re-registering", cfg.NodeID, rot.cur().Base())
			running = nil // the new primary requeued our leases at promotion
			failures, hbDown = 0, false
			if err := reRegister(); err != nil {
				return err
			}
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			failures++
			// A run of failures means the RM is likely dead, not
			// hiccuping: try the next one. Registering fresh is mandatory
			// — the standby has never heard of us. The lease set is
			// deliberately KEPT: the work is already running on this node
			// and finishing it costs nothing, so the agent keeps executing
			// and re-reports the completions to whichever RM it lands on.
			// A new primary that requeued them counts the reports as stale
			// confirms and ignores them — safe either way, and when the
			// same RM comes back the confirms land and prevent a pointless
			// lease-expiry requeue.
			if failures >= failoverAfter && len(cfg.RMs) > 1 {
				logf("ftnode %s: heartbeat failing (%v); failing over from %s", cfg.NodeID, err, rot.cur().Base())
				rot.rotate()
				failures, hbDown = 0, false
				if err := reRegister(); err != nil {
					return err
				}
				break
			}
			// Log the outage once per transition down, not per attempt.
			if !hbDown {
				hbDown = true
				logf("ftnode %s: heartbeat: %v (will keep retrying quietly)", cfg.NodeID, err)
			}
			next.Reset(min(backoff.Delay(failures-1), interval))
			continue
		default:
			if hbDown {
				hbDown = false
				logf("ftnode %s: heartbeat recovered at %s", cfg.NodeID, rot.cur().Base())
			}
			failures = 0
			running = running[:0]
			for _, q := range resp.Launch {
				running = append(running, q.ID)
			}
			if len(running) > 0 {
				logf("ftnode %s: executing %d leases", cfg.NodeID, len(running))
			}
		}
		next.Reset(interval)
	}
}

// registerUntilAccepted registers with the RM, retrying transient
// failures indefinitely (the RM may be restarting, or a failover may be
// in progress) and rotating through the configured RM list so it finds
// whichever replica currently leads; it gives up only on ctx
// cancellation or a permanent rejection (e.g. invalid capacity). It
// returns the heartbeat interval the RM dictated.
//
// Each round makes one attempt, bounded by rmproto.DefaultSlot, at one
// target and then waits the backoff delay, so a ring of dead RMs is
// probed once per backoff cap per agent once the doubling reaches it.
// Logging is once per failing target and once when the whole ring has
// been found down, not once per attempt: an agent riding out an
// hour-long outage produces a handful of lines, not thousands.
func registerUntilAccepted(ctx context.Context, rot *rmRotation, cfg AgentConfig, backoff Backoff, logf func(string, ...any)) (time.Duration, error) {
	var reg rmproto.RegisterNodeResponse
	seenDown := make(map[string]bool) // targets already logged this outage
	ringDown := false                 // logged the whole-ring summary
	for attempt := 0; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, rmproto.DefaultSlot)
		var err error
		reg, err = rot.cur().RegisterNode(actx, rmproto.RegisterNodeRequest{
			NodeID:   cfg.NodeID,
			Capacity: cfg.Capacity,
		})
		cancel()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		// An attempt cut short by its own deadline met an RM that took the
		// connection and never answered: as worth retrying as a refusal.
		if !Retryable(err) && !errors.Is(err, context.DeadlineExceeded) {
			return 0, err
		}
		base := rot.cur().Base()
		if !seenDown[base] {
			seenDown[base] = true
			logf("ftnode %s: cannot register at %s: %v (rotating)", cfg.NodeID, base, err)
		} else if !ringDown {
			// Second sighting of a target we already logged: the whole
			// ring has been tried and found down. Say so once, then stay
			// quiet until something changes.
			ringDown = true
			logf("ftnode %s: all %d RMs unreachable; pacing retries at %v", cfg.NodeID, max(len(cfg.RMs), 1), backoff.Max)
		}
		// not_leader carries a hint to jump to; anything else
		// round-robins. Either way the next attempt asks a different RM.
		rot.redirect(err)
		t := time.NewTimer(backoff.Delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return 0, ctx.Err()
		case <-t.C:
		}
	}
	interval := time.Duration(reg.HeartbeatMs) * time.Millisecond
	if interval <= 0 {
		interval = rmproto.DefaultSlot
	}
	logf("ftnode %s: registered with %s (%d vcores, %d MB), heartbeating every %v",
		cfg.NodeID, rot.cur().Base(), cfg.Capacity.VCores, cfg.Capacity.MemoryMB, interval)
	return interval, nil
}
