package store

import (
	"fmt"
	"sync"
	"time"
)

// SyncPolicy selects when WAL appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways makes Commit wait until the record is fsynced before
	// returning. Concurrent committers share one fsync (group commit):
	// the first waiter syncs the file and releases everyone whose record
	// was already written, so the per-record cost amortizes under load.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves all syncing to the OS. For tests and benchmarks.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never", "none":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always or never)", s)
	}
}

// wal is one open WAL segment. Appends establish a total order under
// wal.mu; durability is provided separately by waitSynced so that the
// caller can release its own locks between writing and committing.
type wal struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    File
	path string

	writtenSeq int64 // sequence of the last record handed to the OS
	syncedSeq  int64 // sequence known to be on stable storage
	syncing    bool  // a group-commit leader is inside Sync
	err        error // sticky write/sync error

	records int64
	bytes   int64
	// base/baseBytes count the records already in the segment file when
	// it was opened (recovery replays them before appends resume), so the
	// segment's replication watermark is base+records / baseBytes+bytes.
	base      int64
	baseBytes int64

	// fsync accounting, reported up through Store.Stats.
	fsyncs     int64
	fsyncTotal time.Duration
	fsyncMax   time.Duration
}

func openWAL(fsys FS, path string) (*wal, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, path: path}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// watermark returns the segment's total record and byte counts,
// including records present before it was opened.
func (w *wal) watermark() (records, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base + w.records, w.baseBytes + w.bytes
}

// append frames and writes one record, returning its sequence number.
// The record is in the OS page cache when append returns; use waitSynced
// to wait for stable storage.
func (w *wal) append(payload []byte) (int64, error) {
	frame, err := EncodeRecord(payload)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("store: wal append: %w", err)
		w.cond.Broadcast()
		return 0, w.err
	}
	w.writtenSeq++
	w.records++
	w.bytes += int64(len(frame))
	return w.writtenSeq, nil
}

// waitSynced blocks until the record with the given sequence is on
// stable storage (group commit): whichever waiter arrives while no sync
// is running becomes the leader, fsyncs once for every record written so
// far, and wakes the cohort.
func (w *wal) waitSynced(seq int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq && w.err == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.writtenSeq
		w.mu.Unlock()
		start := time.Now()
		err := w.f.Sync()
		lat := time.Since(start)
		w.mu.Lock()
		w.syncing = false
		w.fsyncs++
		w.fsyncTotal += lat
		if lat > w.fsyncMax {
			w.fsyncMax = lat
		}
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("store: wal fsync: %w", err)
		}
		if target > w.syncedSeq {
			w.syncedSeq = target
		}
		w.cond.Broadcast()
	}
	return w.err
}

// syncNow fsyncs everything written so far (Sync, rotation, Close).
func (w *wal) syncNow() error {
	w.mu.Lock()
	seq := w.writtenSeq
	w.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return w.waitSynced(seq)
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		// Still release the descriptor; the sticky error already told
		// callers their records may not be durable.
		_ = w.f.Close()
		return w.err
	}
	return w.f.Close()
}
