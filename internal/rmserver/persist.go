// Durability: the RM journals every state mutation to a write-ahead log
// (internal/store) and periodically snapshots its full state. WAL
// records capture the *outcome* of a mutation (decomposed windows,
// issued lease IDs, confirmed quanta), not its input, so replay is
// deterministic without nodes, a scheduler, or the deadline decomposer
// — and idempotent, so replaying the same tail twice (or recovering the
// same directory twice) converges to the same state.
//
// Every journaled mutation takes one route. The replayed state is one
// value, rmstate.State, which no lock, clock or I/O reaches; a mutation is
// decided as its record by rmstate's deciders, which change nothing (a
// tick, a hand-off, a confirm, a requeue, an admission), and
// journalLocked then encodes the record, applies it with State.Apply — the
// function replay and the follower run — and appends it. So the live RM
// holds what replaying its log rebuilds by construction, a record the
// codec refuses changes nothing, and the quanta a tick or a hand-off
// launches are read off its record's grants. What the process keeps beside
// the state (nodes, offers, drain, fencing, counters) no record touches.
//
// What is journaled and what is not:
//
//   - Workflow and ad-hoc submissions, with their decomposed windows
//     and min-slot counts (capacity at submit time is not recoverable).
//   - Every tick: the new slot value, leases granted, and leases
//     requeued by node eviction or lease expiry.
//   - Heartbeat confirmations that actually applied (stale confirms
//     change nothing and are not journaled), and after them the leases
//     the heartbeat dispatched from the tick's offers, as a tick record
//     that advances nothing (an offer itself is never journaled).
//   - Lease requeues triggered by node re-registration or promotion.
//   - Leadership-epoch claims (initial primary start and promotions),
//     so the fencing token survives crashes and ships to followers. An
//     epoch learnt from a fence or a ship request is not journaled: it is
//     the highest this process has seen (repl.go), not its own.
//   - NOT journaled: the scheduler's plan. It is derived from the
//     admitted work the journal holds, no replayed decision reads it, and
//     a restarted or promoted scheduler plans again from revision 0; the
//     ad-hoc gate reads the scheduler's own (gate.go).
//   - NOT journaled: the archive of completed jobs (State.Done). It is
//     derived — the confirm records determine which jobs completed, when
//     and in which order — so replay rebuilds it and snapshots carry it.
//   - NOT journaled: what the process keeps beside the state. Nodes and
//     their liveness are soft state the agents' re-register loop
//     re-establishes, so recovery requeues every in-flight lease (its
//     node binding died with the process) and re-grants the work. Drain
//     is for the life of the process: a restarted RM schedules again
//     instead of coming up refusing work. The fault counters
//     (rmproto.FaultCounters) are its telemetry, counted where it decides
//     what they count, never by replay or a follower's ingest, so they
//     restart at zero with the process, as Prometheus counters do.
//
// Durability ordering: under the always-fsync policy one rule holds —
// only what a crash could not undo on its own waits for the disk. Two
// things are in that class. A submission's acknowledgement: nobody stands
// behind a submission to send it again, so it is answered only after its
// record commits (as is the re-registration requeue). And a status read:
// GET /v1/status is the one read that could show an outsider state a
// crash would take back, so it commits the newest journaled record before
// answering (Server.syncedStatus); /metrics, drain progress and
// in-process Status() are advisory and never touch the disk.
//
// Everything else is journaled in mutation order and rides the next
// commit the RM makes anyway — a submission's, the status barrier, a
// snapshot rotation, the next tick's — because a commit syncs the whole
// written prefix: a heartbeat's confirms; the leases it dispatches from
// the tick's offers when its confirms complete a job (Server.Heartbeat),
// journaled directly behind the confirm record as a tick record whose
// slot does not move; and a tick's own record (slot advance, requeues,
// grants). A tick commits what was journaled before
// it before its grants leave (Server.Tick), so the confirms they were
// computed from are durable first; when a submission already committed
// the slot, that costs no I/O. That is at most one fsync per slot, none
// in a slot a submission opened, plus one per submission.
//
// What it costs: a *machine* crash (a process kill keeps the page cache)
// can lose up to one slot of records — confirms, dispatched leases, the
// slot's tick record — all of them already acted on. Three facts make
// that harmless. WAL order is mutation order and a commit syncs a prefix,
// so the log after a crash is a prefix of what the process journaled: a
// grant record never survives without the confirm that made its job ready,
// nor a tick without what came before it. Recovery and promotion requeue
// every in-flight lease. And the recovered RM knows no node, so a node
// running a lost grant's quantum is refused whole — unknown_node, before
// any confirm it carries is looked at — until it has dropped its lease set
// and re-registered. To everything durable a lost record is then the
// crash arriving just before it: a lost confirm's lease is requeued and
// its finished quantum runs again, a lost tick's slot is ticked again,
// delivered volume is counted exactly once — the fate every quantum in
// flight at the crash already has. What a lost grant adds is that its
// quantum ID comes back: the ID counter is recovered with the log, so the
// recovered RM reissues it. That is harmless: the only holder of the
// ID's first life cannot speak until it holds nothing, and a confirm
// applies only to a live lease on the node that sends it, at most once,
// so even a delayed duplicate of the old heartbeat can at worst confirm
// early a quantum its own node is running — never deliver volume twice,
// never complete a job whose work no node was given.
//
// Under the never policy every one of these windows reopens by design —
// that is the policy's documented trade.
//
// Formats: a WAL payload is a tagged binary record, and rmstate's
// walcodec.go is the only file that knows its layout; a snapshot is
// State.Snapshot's JSON around records in that codec (admissions and a
// tick of the leases), which rmstate.Restore applies as replay does. A
// record holds only what replay reads, and a snapshot only the replayed
// state: no plan, no fault counter, no epoch this process merely saw. `ftrm -wal-dump` prints a log as JSON
// lines (DumpWAL).
package rmserver

import (
	"errors"
	"fmt"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/store"
)

// journalLocked is the one route a decided mutation takes: it encodes the
// record, applies it to the state — as replay and the follower do — and
// appends it to the WAL, returning its commit handle (the zero handle with
// no store). A record the codec refuses is an error that changes nothing;
// one the store refuses is applied and reported as ErrCommitFailed. Must
// be called with s.mu held so record order matches mutation order. The
// handle is also kept as s.journaled: committing a handle commits every
// record before it, which is how the records nobody waits for ride the
// next commit.
func (s *Server) journalLocked(rec rmstate.Record) (store.Handle, error) {
	var payload []byte // in the codec's buffer, valid until the next encode
	if s.store != nil {
		var err error
		if payload, err = s.codec.Encode(&rec); err != nil {
			return store.Handle{}, fmt.Errorf("rmserver: wal encode: %w", err)
		}
	}
	if err := s.st.Apply(&rec); err != nil {
		return store.Handle{}, err
	}
	s.appliedLocked()
	if s.store == nil {
		return store.Handle{}, nil
	}
	h, err := s.store.Append(payload) // copies: the codec's buffer is free again
	if err != nil {
		return store.Handle{}, fmt.Errorf("rmserver: wal append: %w: %w", ErrCommitFailed, err)
	}
	s.journaled = h
	return h, nil
}

// appliedLocked catches this process up with what applying records may
// have changed: an epoch journaled is one it has seen, and Drain wakes
// once the last lease has cleared.
func (s *Server) appliedLocked() {
	s.seen = max(s.seen, s.st.Epoch())
	if len(s.st.Leases()) == 0 {
		s.cond.Broadcast()
	}
}

// applied reports whether journalLocked applied the record it answered
// err for: it did unless the codec or the apply refused it first. A store
// that refuses the append answers ErrCommitFailed after the apply.
func applied(err error) bool { return err == nil || errors.Is(err, ErrCommitFailed) }

// commitRecord makes a journaled record — and every record journaled
// before it — durable per the store's fsync policy. Called WITHOUT s.mu
// so a slow fsync never blocks the control plane; concurrent committers
// group-commit. The handle is bound to its WAL segment, so committing is
// safe even if a snapshot rotation has since swapped in a fresh segment.
func (s *Server) commitRecord(h store.Handle) error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Commit(h); err != nil {
		// Wrap both the coded sentinel (for the HTTP layer's 503 +
		// commit_failed mapping) and the store's error (for diagnostics).
		return fmt.Errorf("rmserver: wal commit: %w: %w", ErrCommitFailed, err)
	}
	return nil
}

// recoverLocked rebuilds state from what the store recovered: restore the
// snapshot, replay the WAL tail, then reclaim every in-flight lease —
// the node bindings died with the previous process, and the agents will
// re-register with empty hands. Replay is idempotent: duplicate
// submissions are skipped, grants are gated on the quantum-ID
// watermark, and confirms/requeues of unknown leases are no-ops.
func (s *Server) recoverLocked() error {
	start := time.Now()
	info := s.store.Recovery()
	rec := rmproto.RecoveryStatus{
		Performed:         true,
		WALTruncated:      info.Truncated,
		TruncatedBytes:    info.TruncatedBytes,
		StaleFilesRemoved: info.StaleFilesRemoved,
	}
	snap, records := s.store.TakeRecovered()
	if snap != nil {
		var err error
		if s.st, err = rmstate.Restore(s.cfg.SlotDur, s.cfg.LeaseExpiry, snap); err != nil {
			return err
		}
		rec.FromSnapshot = true
		rec.SnapshotSlot = s.st.Slot()
	}
	for i, payload := range records {
		if err := s.applyRecordLocked(payload); err != nil {
			return fmt.Errorf("replay record %d/%d: %w", i+1, info.Records, err)
		}
		rec.RecordsReplayed++
	}
	// Orphan leases belong to the dead process's nodes — but only an
	// acting primary may requeue them. A follower must keep replaying
	// exactly the primary's stream; its leases are requeued at promotion.
	// The requeue is journaled and committed, as a promotion's is, so a
	// follower of this log and its next recovery drop the same leases.
	// Its quanta are the first this process counts.
	if !s.cfg.Follower && len(s.st.Leases()) > 0 {
		orphans := s.st.DecideRequeue(anyLease)
		h, err := s.requeueLocked(orphans)
		if err == nil {
			err = s.commitRecord(h)
		}
		if err != nil {
			return fmt.Errorf("journal the orphan requeue: %w", err)
		}
		rec.OrphanLeasesRequeued = len(orphans.QIDs)
	}
	s.appliedLocked()
	rec.Slot = s.st.Slot()
	rec.Micros = (time.Since(start) + info.Elapsed).Microseconds()
	s.recovery = &rec
	return nil
}

// applyRecordLocked decodes one journaled payload and applies it, as
// replay and a follower's ingest do.
func (s *Server) applyRecordLocked(payload []byte) error {
	rec, err := s.codec.Decode(payload)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return s.st.Apply(&rec)
}

// writeSnapshotLocked snapshots the full state and rotates the WAL.
// Holding s.mu across the disk write is deliberate: it guarantees no
// record lands in the outgoing segment after the state it captures,
// which rotation is about to delete.
func (s *Server) writeSnapshotLocked() error {
	if s.store == nil {
		return nil
	}
	payload, err := s.st.Snapshot()
	if err != nil {
		return fmt.Errorf("rmserver: snapshot: %w", err)
	}
	if err := s.store.WriteSnapshot(payload); err != nil {
		return fmt.Errorf("rmserver: snapshot: %w", err)
	}
	return nil
}

// WriteSnapshot persists a full-state snapshot and rotates the WAL, so
// a subsequent recovery replays only records appended after this call.
// A no-op without a store. The RM's run loop calls it on a cadence and
// after a completed drain.
func (s *Server) WriteSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshotLocked()
}
