package store

import (
	"errors"
	"fmt"
	"io/fs"
)

// Watermark identifies a position in a store's record stream: the
// snapshot generation plus how many records (and framed bytes) of that
// generation's WAL segment precede the position. A follower's watermark
// tells the primary exactly what to ship next; persisted frame counts
// survive restarts because they are recomputed from the segment files
// themselves during Open.
type Watermark struct {
	Gen     int64 `json:"gen"`
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

func (w Watermark) String() string {
	return fmt.Sprintf("gen %d rec %d (%d B)", w.Gen, w.Records, w.Bytes)
}

// Validate refuses a watermark no stream has: one with a negative field.
func (w Watermark) Validate() error {
	if w.Gen < 0 || w.Records < 0 || w.Bytes < 0 {
		return fmt.Errorf("store: watermark %v is negative", w)
	}
	return nil
}

// ShipBatch is one unit of primary→follower log shipping, produced by
// ShipFrom and consumed by Ingest. Two shapes:
//
//   - Incremental: SnapInstall false; Records are the WAL payloads of
//     generation Gen starting at index FromSeq.
//   - Snapshot install: SnapInstall true; the follower replaces its
//     entire state directory with Snapshot at generation Gen (Snapshot
//     nil means the empty state of generation 0), then applies Records
//     from index 0.
//
// Head is the shipper's own watermark at read time, for lag reporting.
type ShipBatch struct {
	SnapInstall bool      `json:"snap_install,omitempty"`
	Gen         int64     `json:"gen"`
	Snapshot    []byte    `json:"snapshot,omitempty"`
	FromSeq     int64     `json:"from_seq"`
	Records     [][]byte  `json:"records,omitempty"`
	Head        Watermark `json:"head"`
}

// Empty reports whether the batch carries nothing to apply.
func (b ShipBatch) Empty() bool { return !b.SnapInstall && len(b.Records) == 0 }

// ErrShipMismatch is returned by Ingest when a batch does not align
// with the follower store's current position (wrong generation or a
// sequence gap). The replicator recovers by re-reading its watermark
// and requesting a fresh batch — the primary responds with a snapshot
// install if the streams have truly diverged.
var ErrShipMismatch = errors.New("store: ship batch does not align with follower position")

// Watermark returns the store's current stream position: everything a
// fully caught-up follower would hold.
func (s *Store) Watermark() Watermark {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, bytes := s.w.watermark()
	return Watermark{Gen: s.gen, Records: rec, Bytes: bytes}
}

// ShipFrom reads the batch a follower at position `from` needs next, up
// to roughly maxBytes of record payload per call (at least one record
// is always included; maxBytes <= 0 selects 1 MiB). A follower on the
// current generation gets an incremental batch; a follower on another
// generation — or ahead of this store, which happens when a restarted
// primary lost an unsynced tail the follower had already received —
// gets a snapshot install that resets it to this store's stream. A
// watermark with a negative field is refused.
func (s *Store) ShipFrom(from Watermark, maxBytes int) (ShipBatch, error) {
	if err := from.Validate(); err != nil {
		return ShipBatch{}, err
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ShipBatch{}, errors.New("store: closed")
	}
	headRec, headBytes := s.w.watermark()
	head := Watermark{Gen: s.gen, Records: headRec, Bytes: headBytes}

	if from.Gen == s.gen && from.Records == headRec {
		return ShipBatch{Gen: s.gen, FromSeq: from.Records, Head: head}, nil
	}

	// Read the active segment. Concurrent appends may leave a torn tail
	// in the read; DecodeAll's clean prefix is exactly the shippable set.
	payloads, err := s.readSegmentLocked(s.gen)
	if err != nil {
		return ShipBatch{}, err
	}

	if from.Gen == s.gen && from.Records <= int64(len(payloads)) {
		return ShipBatch{
			Gen:     s.gen,
			FromSeq: from.Records,
			Records: capBatch(payloads[from.Records:], maxBytes),
			Head:    head,
		}, nil
	}

	// Generation mismatch or follower ahead: reset it with a snapshot
	// install at this store's generation.
	var snapshot []byte
	if s.gen > 0 {
		snapshot, err = readSnapshotFile(s.fs, snapPath(s.dir, s.gen))
		if err != nil {
			return ShipBatch{}, fmt.Errorf("store: ship snapshot gen %d: %w", s.gen, err)
		}
	}
	return ShipBatch{
		SnapInstall: true,
		Gen:         s.gen,
		Snapshot:    snapshot,
		FromSeq:     0,
		Records:     capBatch(payloads, maxBytes),
		Head:        head,
	}, nil
}

// readSegmentLocked decodes the clean prefix of a generation's WAL
// segment. A missing file is the empty segment.
func (s *Store) readSegmentLocked(gen int64) ([][]byte, error) {
	raw, err := s.fs.ReadFile(walPath(s.dir, gen))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payloads, _, _ := DecodeAll(raw)
	return payloads, nil
}

// capBatch truncates a payload slice to roughly maxBytes, always
// keeping at least one record so progress is guaranteed.
func capBatch(payloads [][]byte, maxBytes int) [][]byte {
	total := 0
	for i, p := range payloads {
		total += len(p) + frameHeaderLen
		if total > maxBytes && i > 0 {
			return payloads[:i]
		}
	}
	return payloads
}

// Ingest applies one shipped batch to a follower store, making the
// records durable (the batch is fsynced before Ingest returns, so the
// watermark the follower reports never outruns its disk). A batch that
// does not align with the store's position returns ErrShipMismatch;
// already-held records within an otherwise aligned batch are skipped.
// The caller replays the newly ingested payloads into its own state
// machine after Ingest returns.
//
// Returns the payloads that were actually new (suffix of batch.Records)
// and the store's watermark after the batch.
func (s *Store) Ingest(batch ShipBatch) ([][]byte, Watermark, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Watermark{}, errors.New("store: closed")
	}
	if batch.SnapInstall {
		if err := s.installSnapshotLocked(batch.Gen, batch.Snapshot); err != nil {
			return nil, Watermark{}, err
		}
	}
	if batch.Gen != s.gen {
		return nil, Watermark{}, fmt.Errorf("%w: batch gen %d, store gen %d", ErrShipMismatch, batch.Gen, s.gen)
	}
	cur, _ := s.w.watermark()
	recs := batch.Records
	from := batch.FromSeq
	if from < cur {
		overlap := cur - from
		if overlap >= int64(len(recs)) {
			recs = nil // every record already held
		} else {
			recs = recs[overlap:]
		}
		from = cur
	}
	if from != cur {
		return nil, Watermark{}, fmt.Errorf("%w: batch starts at %d, store holds %d records", ErrShipMismatch, batch.FromSeq, cur)
	}
	for _, p := range recs {
		if _, err := s.w.append(p); err != nil {
			return nil, Watermark{}, err
		}
	}
	if len(recs) > 0 {
		if err := s.w.syncNow(); err != nil {
			return nil, Watermark{}, err
		}
	}
	rec, bytes := s.w.watermark()
	return recs, Watermark{Gen: s.gen, Records: rec, Bytes: bytes}, nil
}

// installSnapshotLocked resets the store to a shipped snapshot at the
// given generation: the current segment is retired and removed (its
// records are not part of the shipped stream), the snapshot is written
// under the shipped generation, and a fresh WAL segment is opened for
// the records that follow. A crash mid-install leaves a directory Open
// can always recover: either the old generation's snapshot or the new
// one, never a half state.
func (s *Store) installSnapshotLocked(gen int64, snapshot []byte) error {
	old, oldGen := s.w, s.gen
	old.mu.Lock()
	s.prevRecords += old.records
	s.prevBytes += old.bytes
	s.prevFsyncs += old.fsyncs
	s.prevFsyncTotal += old.fsyncTotal
	if old.fsyncMax > s.prevFsyncMax {
		s.prevFsyncMax = old.fsyncMax
	}
	old.mu.Unlock()
	_ = old.close()
	_ = s.fs.Remove(walPath(s.dir, oldGen))
	if oldGen != gen {
		_ = s.fs.Remove(snapPath(s.dir, oldGen))
	}

	if gen > 0 {
		if err := writeSnapshotFile(s.fs, snapPath(s.dir, gen), snapshot); err != nil {
			return err
		}
	}
	nw, err := openWAL(s.fs, walPath(s.dir, gen))
	if err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		_ = nw.close()
		return err
	}
	s.w, s.gen = nw, gen
	s.snapshots++
	s.lastSnapLen = len(snapshot)
	return nil
}
