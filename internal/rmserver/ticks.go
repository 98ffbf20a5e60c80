package rmserver

import (
	"sync"
	"time"

	"flowtime/internal/sched"
)

// TickRecord is one tick as the resource manager timed it: the slot it
// advanced to, how long each of its phases took, and the replan its
// Assign ran (Replan.Cause is empty when it ran none). The phases are
// disjoint and, with the replan's stages, add up to the tick. Decide is
// its scheduling outside those stages: the requeues, the scheduler's view,
// Assign's passes and the gate's rebase; Place is first-fit placement and
// the queueing of the grants; Journal is the tick record's encode, apply
// and append; Commit is the commit, with its fsync, of what came before.
// Refused is how many whole tasks of the slot's grants no node had room
// for, the tick's and its hand-offs' (rmstate.State.PlaceTick, DecideHandOff).
type TickRecord struct {
	Slot                           int64
	Decide, Place, Journal, Commit time.Duration
	Replan                         sched.ReplanStats
	Refused                        int64
}

// tickRingSize is how many of the last ticks the ring keeps.
const tickRingSize = 256

// tickRing keeps the last tickRingSize tick records in an array allocated
// with the server, under a lock of its own: Tick writes it after its
// commit and GET /v1/debug/ticks reads it, neither under s.mu. It is not
// journaled and nothing the RM decides reads it.
type tickRing struct {
	mu  sync.Mutex
	buf [tickRingSize]TickRecord
	n   int // records ever written
}

func (r *tickRing) put(t TickRecord) {
	r.mu.Lock()
	r.buf[r.n%tickRingSize] = t
	r.n++
	r.mu.Unlock()
}

// addRefused adds the whole tasks a hand-off refused to the newest record,
// the slot's: Tick puts it before it arms the slot's offers.
func (r *tickRing) addRefused(n int64) {
	r.mu.Lock()
	r.buf[(r.n-1)%tickRingSize].Refused += n
	r.mu.Unlock()
}

// Ticks returns the records of the last ticks, up to 256 of them, oldest
// first.
func (s *Server) Ticks() []TickRecord {
	r := &s.ticks
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TickRecord, 0, min(r.n, tickRingSize))
	for i := max(0, r.n-tickRingSize); i < r.n; i++ {
		out = append(out, r.buf[i%tickRingSize])
	}
	return out
}

// stopwatch times a tick's phases for its record: each lap is the time
// since the one before. It is the record's clock and no decision's.
type stopwatch struct{ last time.Time }

func (w *stopwatch) lap() time.Duration {
	now := time.Now()
	d := now.Sub(w.last)
	w.last = now
	return d
}
