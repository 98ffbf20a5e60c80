// Package netchaos is a deterministic, scriptable network fault
// injector for the RM control plane. Everything FaultFS does below the
// syscall layer (internal/store), this package does for the network
// between agents, the RM, and the replication link: one-way and
// asymmetric partitions, latency distributions, message drops,
// duplicates, connection resets, byte throttling, and timed scenario
// scripts ("partition agent->rm from t=2s to t=5s, then flap").
//
// The injector is attached at three seams:
//
//   - Transport wraps an http.RoundTripper, faulting requests on the
//     from->to direction and responses on the to->from direction — so a
//     one-way partition can deliver a mutation and lose only its
//     acknowledgement, the nastiest retry case.
//   - Proxy is a TCP proxy (its own net.Listener) between a client and
//     a real server; faults act on the byte stream, so HTTP-level
//     artifacts (error codes, headers such as Retry-After, leader
//     hints) must survive intact — chaos tests assert exactly that.
//   - WrapListener shims a server's own net.Listener, faulting inbound
//     connections without a separate proxy process (ftrm -chaos-net).
//
// Determinism: an Injector takes a seed and a Script. All probabilistic
// decisions are drawn from per-link RNG streams derived from the seed
// and the link name, so concurrent traffic on link A never perturbs the
// decision sequence on link B, and the same seed + script + decision
// sequence reproduces the same fault sequence. Time-windowed rules read
// a clock that tests can replace with a virtual one (SetClock) to make
// the timeline itself reproducible.
package netchaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// Partition drops everything on the link while the rule is active.
	Partition FaultKind = iota
	// Drop loses each message independently with probability P.
	Drop
	// Reset delivers the message, then fails the link (connection reset
	// / response lost) with probability P.
	Reset
	// Duplicate re-delivers each message with probability P.
	Duplicate
	// Latency delays each message by Latency plus uniform Jitter.
	Latency
	// Throttle caps the link at BytesPerSec (slow reads/writes).
	Throttle
)

func (k FaultKind) String() string {
	switch k {
	case Partition:
		return "partition"
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Duplicate:
		return "dup"
	case Latency:
		return "latency"
	case Throttle:
		return "throttle"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Rule is one scripted fault: a fault kind applied to a directed link
// during a time window, optionally flapping on a duty cycle.
type Rule struct {
	// From and To name the link's endpoints; "*" matches any label.
	From, To string
	// Bidir applies the rule in both directions (the "a<->b" form).
	Bidir bool
	// Start and End bound the active window, measured from the
	// injector's clock origin. End <= 0 means open-ended.
	Start, End time.Duration
	// Fault selects the fault class; the remaining fields parameterize it.
	Fault FaultKind
	// P is the per-message probability for Drop/Reset/Duplicate
	// (ignored by the other kinds; Partition is unconditional).
	P float64
	// Latency and Jitter parameterize Latency rules: each message is
	// delayed Latency plus a uniform draw from [0, Jitter].
	Latency, Jitter time.Duration
	// BytesPerSec caps throughput for Throttle rules.
	BytesPerSec int
	// Period and Duty make any rule flap: within each Period the rule
	// is active for the first Duty fraction and dormant for the rest.
	// Period 0 means always active inside the window.
	Period time.Duration
	Duty   float64
}

// matches reports whether the rule covers the from->to direction.
func (r *Rule) matches(from, to string) bool {
	if matchLabel(r.From, from) && matchLabel(r.To, to) {
		return true
	}
	return r.Bidir && matchLabel(r.From, to) && matchLabel(r.To, from)
}

func matchLabel(pat, s string) bool { return pat == "*" || pat == s }

// activeAt reports whether the rule is live at elapsed time now,
// accounting for the window and the flap duty cycle.
func (r *Rule) activeAt(now time.Duration) bool {
	if now < r.Start {
		return false
	}
	if r.End > 0 && now >= r.End {
		return false
	}
	if r.Period > 0 {
		duty := r.Duty
		if duty <= 0 || duty > 1 {
			duty = 0.5
		}
		phase := (now - r.Start) % r.Period
		return phase < time.Duration(duty*float64(r.Period))
	}
	return true
}

// Script is an ordered rule list; every active matching rule
// contributes to a decision (latencies add, throttles take the
// tightest cap, any partition wins).
type Script []Rule

// Decision is the injector's verdict for one message (or connection) on
// a directed link at one moment.
type Decision struct {
	// Drop loses the message before it reaches the peer.
	Drop bool
	// Reset delivers the message but fails the link afterwards: the
	// sender sees an error even though the peer processed the message.
	Reset bool
	// Duplicate re-delivers the message once.
	Duplicate bool
	// Delay postpones delivery.
	Delay time.Duration
	// BytesPerSec throttles the stream; 0 means unthrottled.
	BytesPerSec int
}

// Injector evaluates a Script against a seeded RNG and a clock. The
// zero value and a nil *Injector are inert (every decision is clean),
// so callers can thread an optional injector without nil checks.
type Injector struct {
	script Script
	seed   int64

	mu    sync.Mutex
	rngs  map[string]*rand.Rand
	start time.Time
	clock func() time.Duration
}

// New returns an injector over script whose probabilistic choices are
// derived from seed. The clock origin is the moment New is called.
func New(seed int64, script Script) *Injector {
	return &Injector{
		script: script,
		seed:   seed,
		rngs:   make(map[string]*rand.Rand),
		start:  time.Now(),
	}
}

// SetClock replaces the wall clock with a virtual one returning elapsed
// time since the scenario origin. Tests use it to pin the timeline.
func (in *Injector) SetClock(clock func() time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.clock = clock
}

func (in *Injector) elapsedLocked() time.Duration {
	if in.clock != nil {
		return in.clock()
	}
	return time.Since(in.start)
}

// linkRNG returns the per-link RNG stream, creating it deterministically
// from the seed and the link name on first use.
func (in *Injector) linkRNG(link string) *rand.Rand {
	r, ok := in.rngs[link]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(link))
		r = rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
		in.rngs[link] = r
	}
	return r
}

// Decide evaluates the script for one message traveling from -> to at
// the current scenario time. Safe for concurrent use; a nil injector
// always answers a clean Decision.
func (in *Injector) Decide(from, to string) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.elapsedLocked()
	rng := in.linkRNG(from + "->" + to)
	var d Decision
	for i := range in.script {
		r := &in.script[i]
		if !r.matches(from, to) || !r.activeAt(now) {
			continue
		}
		switch r.Fault {
		case Partition:
			d.Drop = true
		case Drop:
			if rng.Float64() < r.P {
				d.Drop = true
			}
		case Reset:
			if rng.Float64() < r.P {
				d.Reset = true
			}
		case Duplicate:
			if rng.Float64() < r.P {
				d.Duplicate = true
			}
		case Latency:
			l := r.Latency
			if r.Jitter > 0 {
				l += time.Duration(rng.Int63n(int64(r.Jitter) + 1))
			}
			d.Delay += l
		case Throttle:
			if r.BytesPerSec > 0 && (d.BytesPerSec == 0 || r.BytesPerSec < d.BytesPerSec) {
				d.BytesPerSec = r.BytesPerSec
			}
		}
	}
	return d
}

// FaultError is the transport-level error surfaced for injected drops
// and resets. It implements net.Error (non-timeout, temporary) so
// callers treat it exactly like a real connection failure.
type FaultError struct {
	Link   string
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netchaos: %s on %s", e.Reason, e.Link)
}

// Timeout implements net.Error.
func (e *FaultError) Timeout() bool { return false }

// Temporary implements net.Error.
func (e *FaultError) Temporary() bool { return true }

// sleepCtx sleeps d, returning ctx.Err() if the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
