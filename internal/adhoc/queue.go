// Package adhoc implements the lock-free batched ad-hoc admission queue:
// the fast path that admits or rejects an ad-hoc job in O(window) against
// the plan's leftover capacity without waking the planner.
//
// The paper's leftover policy makes this exact: FlowTime's lexicographic
// objective minimizes the planned deadline skyline precisely so that
// leftover := capacity − planned load is maximal at every slot, and an
// ad-hoc job is admissible iff its demand fits in that leftover. Because
// the LP's resource kinds share no variables or constraints, each kind
// can be charged independently — admission decomposes into per-(slot,
// kind) counters.
//
// Concurrency model: the queue holds an immutable *epoch* — the leftover
// profile of one plan revision as per-slot, per-kind atomic free
// counters — swapped wholesale on Rebase when the planner publishes a
// new revision. Submitters never take a lock: they charge the counters
// with an overdraft-and-repay fetch-add (decrement first, give back what
// overshot), which can transiently drive a counter negative but can
// never hand the same unit to two jobs; a rejected submission repays
// everything it took. Each admission appends one record to the epoch's
// lock-free charge log. Rebase publishes the next epoch, waits for
// in-flight submitters on the old epoch to finish (submitters never
// wait — only the planner does, briefly), then drains the old epoch's
// charge log and consumed totals for the planner to fold into the next
// replan.
package adhoc

import (
	"runtime"
	"sync/atomic"

	"flowtime/internal/resource"
)

// Request is one ad-hoc admission request: demand volume per kind, a
// per-slot parallelism ceiling, and the window of absolute slots the
// work may occupy.
type Request struct {
	ID string
	// Rel (inclusive) and Dl (exclusive) bound the window in absolute
	// slots. The effective window is the intersection with the current
	// epoch's slot range.
	Rel, Dl int64
	// Demand is the total volume to place, per kind.
	Demand resource.Vector
	// PerSlot caps the per-slot take, per kind (0 = no cap beyond the
	// slot's leftover).
	PerSlot resource.Vector
}

// Charge records one admitted request's exact per-slot takes, for the
// planner to drain at the next replan.
type Charge struct {
	ID string
	// From is the absolute slot of Taken[0].
	From int64
	// Taken[i] is the volume charged at slot From+i.
	Taken []resource.Vector
}

// Drain is the outcome of retiring one epoch: everything admitted
// against it since the previous Rebase.
type Drain struct {
	// Rev is the plan revision the retired epoch was built from (-1 when
	// there was no epoch yet).
	Rev int64
	// From is the absolute slot of Consumed[0].
	From int64
	// Charges lists every admission in this epoch, in no particular
	// order (the log is written lock-free from many goroutines).
	Charges []Charge
	// Consumed[i] is the total volume admitted at slot From+i — exactly
	// initial leftover minus remaining free.
	Consumed []resource.Vector
}

// Stats are the queue's monotonic admission counters.
type Stats struct {
	Admitted int64
	Rejected int64
	Rebases  int64
}

// kindCounters is the per-slot free-capacity cell: one atomic counter
// per resource kind.
type kindCounters [resource.NumKinds]atomic.Int64

const logChunkSize = 1024

// logChunk is one block of the epoch's lock-free charge log. Writers
// reserve a cell with a fetch-add on n and link overflow chunks with a
// CAS; the reader only walks the chain after the epoch has quiesced.
type logChunk struct {
	n       atomic.Int64
	entries [logChunkSize]Charge
	next    atomic.Pointer[logChunk]
}

// epoch is the leftover profile of one plan revision. Immutable except
// for the atomic counters and the charge log.
type epoch struct {
	rev     int64
	from    int64
	nSlots  int64
	initial []resource.Vector
	free    []kindCounters
	// writers counts in-flight Submit calls against this epoch; Rebase
	// waits for it to reach zero before draining.
	writers atomic.Int64
	log     logChunk
}

// Queue is the admission queue. The zero value is unusable; call New.
// Submit is safe for any number of concurrent callers; Rebase must be
// called from one goroutine at a time (the planner's replan path).
type Queue struct {
	epoch    atomic.Pointer[epoch]
	admitted atomic.Int64
	rejected atomic.Int64
	rebases  atomic.Int64
}

// New returns an empty queue. Until the first Rebase publishes a
// leftover profile every submission is rejected — with no plan there is
// no leftover to admit against.
func New() *Queue { return &Queue{} }

// Rev returns the plan revision of the current epoch (-1 before the
// first Rebase).
func (q *Queue) Rev() int64 {
	e := q.epoch.Load()
	if e == nil {
		return -1
	}
	return e.rev
}

// Stats returns the queue's admission counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Admitted: q.admitted.Load(),
		Rejected: q.rejected.Load(),
		Rebases:  q.rebases.Load(),
	}
}

// Submit admits or rejects one request in O(window): for each kind it
// walks the effective window charging free capacity with overdraft-and-
// repay fetch-adds, and either places the full demand (admit — the exact
// per-slot takes are appended to the charge log) or repays every unit it
// took (reject). Never blocks, never overcharges: a unit repaid was
// never observable as admitted, and a unit kept was subtracted from the
// shared counter exactly once.
func (q *Queue) Submit(req Request) bool {
	var e *epoch
	for {
		if e = q.epoch.Load(); e == nil {
			q.rejected.Add(1)
			return false
		}
		// Register as a writer, then make sure the epoch was not retired
		// in between: a Rebase that swapped it out before the Add may
		// already have seen writers == 0 and drained it.
		e.writers.Add(1)
		if q.epoch.Load() == e {
			break
		}
		e.writers.Add(-1)
	}
	ok := e.charge(req)
	e.writers.Add(-1)
	if ok {
		q.admitted.Add(1)
	} else {
		q.rejected.Add(1)
	}
	return ok
}

func (e *epoch) charge(req Request) bool {
	lo, hi := req.Rel, req.Dl
	if lo < e.from {
		lo = e.from
	}
	if end := e.from + e.nSlots; hi > end {
		hi = end
	}
	if lo >= hi {
		return req.Demand.IsZero()
	}
	n := hi - lo
	var taken []resource.Vector
	for ki := range resource.Kinds() {
		need := req.Demand[ki]
		if need < 0 {
			e.rollback(taken, lo)
			return false
		}
		if need == 0 {
			continue
		}
		perSlot := req.PerSlot[ki]
		for off := int64(0); off < n && need > 0; off++ {
			want := need
			if perSlot > 0 && want > perSlot {
				want = perSlot
			}
			c := &e.free[lo+off-e.from][ki]
			got := want
			if after := c.Add(-want); after < 0 {
				// Overdraft: repay what was not actually there.
				got = want + after
				if got < 0 {
					got = 0
				}
				c.Add(want - got)
			}
			if got == 0 {
				continue
			}
			if taken == nil {
				taken = make([]resource.Vector, n)
			}
			taken[off][ki] += got
			need -= got
		}
		if need > 0 {
			e.rollback(taken, lo)
			return false
		}
	}
	if req.Demand.IsZero() {
		return true
	}
	e.log.append(Charge{ID: req.ID, From: lo, Taken: taken})
	return true
}

// rollback repays every unit recorded in taken.
func (e *epoch) rollback(taken []resource.Vector, lo int64) {
	for off, v := range taken {
		for ki := range resource.Kinds() {
			if v[ki] > 0 {
				e.free[lo+int64(off)-e.from][ki].Add(v[ki])
			}
		}
	}
}

// append reserves a cell in the chunk chain and writes the charge. The
// final writers.Add(-1) in Submit orders the write before any reader
// that observed writers == 0.
func (c *logChunk) append(ch Charge) {
	for {
		idx := c.n.Add(1) - 1
		if idx < logChunkSize {
			c.entries[idx] = ch
			return
		}
		if c.next.Load() == nil {
			c.next.CompareAndSwap(nil, &logChunk{})
		}
		c = c.next.Load()
	}
}

// collect walks the chunk chain after quiescence.
func (c *logChunk) collect() []Charge {
	var out []Charge
	for c != nil {
		n := c.n.Load()
		if n > logChunkSize {
			n = logChunkSize
		}
		out = append(out, c.entries[:n]...)
		c = c.next.Load()
	}
	return out
}

// Rebase atomically publishes the leftover profile of a new plan
// revision — leftover[i] is the free capacity at absolute slot from+i —
// and retires the previous epoch, returning everything that was admitted
// against it. New submissions switch to the new profile immediately;
// Rebase then waits (spinning, typically nanoseconds) for submissions
// already in flight on the old epoch to finish, so the returned drain is
// complete and the consumed totals are final.
func (q *Queue) Rebase(rev, from int64, leftover []resource.Vector) Drain {
	next := &epoch{
		rev:     rev,
		from:    from,
		nSlots:  int64(len(leftover)),
		initial: make([]resource.Vector, len(leftover)),
		free:    make([]kindCounters, len(leftover)),
	}
	for i, v := range leftover {
		for ki := range resource.Kinds() {
			amt := v[ki]
			if amt < 0 {
				amt = 0 // a skyline above capacity yields no leftover, not debt
			}
			next.initial[i][ki] = amt
			next.free[i][ki].Store(amt)
		}
	}
	old := q.epoch.Swap(next)
	q.rebases.Add(1)
	if old == nil {
		return Drain{Rev: -1}
	}
	for old.writers.Load() != 0 {
		runtime.Gosched()
	}
	d := Drain{
		Rev:      old.rev,
		From:     old.from,
		Charges:  old.log.collect(),
		Consumed: make([]resource.Vector, old.nSlots),
	}
	for i := range d.Consumed {
		for ki := range resource.Kinds() {
			d.Consumed[i][ki] = old.initial[i][ki] - old.free[i][ki].Load()
		}
	}
	return d
}
