package store

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Options parameterizes Open.
type Options struct {
	// Dir is the state directory; created if absent. Required.
	Dir string
	// Policy selects the fsync discipline (default SyncAlways).
	Policy SyncPolicy
	// FS is the filesystem the store runs on (default OSFS). Tests
	// substitute a FaultFS to exercise disk-fault paths.
	FS FS
}

// RecoveryInfo describes what Open found in the state directory.
type RecoveryInfo struct {
	// Generation is the snapshot/WAL generation recovery resumed from.
	Generation int64
	// SnapshotBytes is the size of the recovered snapshot payload; zero
	// means recovery started from the empty state.
	SnapshotBytes int
	// Records is the number of valid WAL records recovered for replay.
	Records int
	// TruncatedBytes is how many torn/corrupt trailing bytes were cut
	// from the WAL before appends resumed; Truncated is its flag.
	TruncatedBytes int64
	Truncated      bool
	// StaleFilesRemoved counts leftovers from older generations or
	// interrupted rotations that Open cleaned up.
	StaleFilesRemoved int
	// Elapsed is how long Open spent scanning, validating, and
	// truncating (excludes the caller's replay of the records).
	Elapsed time.Duration
}

// Stats is a point-in-time view of the store's I/O counters,
// cumulative across rotations since Open.
type Stats struct {
	Generation  int64
	WALRecords  int64 // records appended since Open
	WALBytes    int64 // framed bytes appended since Open
	Unsynced    int64 // records written but not yet fsynced: what a machine crash would lose now
	Fsyncs      int64
	FsyncTotal  time.Duration
	FsyncMax    time.Duration
	Snapshots   int64 // snapshots written since Open
	LastSnapLen int   // payload size of the newest snapshot
}

// Store manages one state directory: the active WAL segment, the
// snapshot files, and generation rotation. All methods are safe for
// concurrent use. Exactly one process may own a directory at a time;
// the store does not lock the directory.
type Store struct {
	dir    string
	policy SyncPolicy
	fs     FS

	mu  sync.Mutex
	gen int64
	w   *wal
	// carried counters from rotated-out segments, so Stats stays
	// cumulative.
	prevRecords, prevBytes, prevFsyncs int64
	prevFsyncTotal, prevFsyncMax       time.Duration
	snapshots                          int64
	lastSnapLen                        int
	closed                             bool

	recovered     []byte
	recoveredRecs [][]byte
	recovery      RecoveryInfo
}

func snapPath(dir string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%012d.snap", gen))
}

func walPath(dir string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%012d.log", gen))
}

// Open attaches to (or initializes) a state directory and performs the
// file-level half of recovery: it picks the newest generation with a
// valid snapshot (falling back past corrupt ones), loads that snapshot,
// scans the matching WAL segment — truncating a torn or corrupt tail —
// and removes leftovers from interrupted rotations. If snapshot files
// exist but none of them loads cleanly, Open fails and preserves the
// files rather than silently recovering from the empty state. The
// recovered snapshot and records are handed to the owner, once, by
// TakeRecovered.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty state directory")
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	start := time.Now()
	s := &Store{
		dir:    opts.Dir,
		policy: opts.Policy,
		fs:     opts.FS,
	}

	snaps, wals, gens, tmps, err := scanDir(s.fs, opts.Dir)
	if err != nil {
		return nil, err
	}

	// Choose the recovery generation: the highest generation whose
	// snapshot loads cleanly, or generation 0 (empty state, no snapshot
	// required). Generations above the chosen one can only be artifacts
	// of an interrupted rotation or corruption; their files are removed.
	chosen := int64(0)
	var snapshot []byte
	var snapErr error
	for _, g := range gens {
		if g == 0 {
			break
		}
		if !snaps[g] {
			continue // WAL without its snapshot: an interrupted rotation
		}
		payload, err := readSnapshotFile(s.fs, snapPath(opts.Dir, g))
		if err != nil {
			snapErr = fmt.Errorf("snap gen %d: %w", g, err)
			continue // corrupt snapshot: fall back to an older generation
		}
		chosen, snapshot = g, payload
		break
	}
	// Snapshot files exist but none loads cleanly: the directory holds
	// acknowledged-durable state we cannot read. Silently recovering from
	// the empty state would discard it, so fail loudly and leave every
	// file in place for forensics; the operator resets by moving the
	// directory aside.
	if chosen == 0 && snapErr != nil {
		return nil, fmt.Errorf("store: snapshot present in %s but none loads cleanly (%v); refusing to recover from empty state — move the directory aside to reset", opts.Dir, snapErr)
	}
	s.gen = chosen
	s.recovered = snapshot
	s.recovery.Generation = chosen
	s.recovery.SnapshotBytes = len(snapshot)

	// Scan the active WAL segment, truncating any torn/corrupt tail so
	// appends resume from a clean prefix.
	wp := walPath(opts.Dir, chosen)
	var walBase, walBaseBytes int64
	if raw, err := s.fs.ReadFile(wp); err == nil {
		payloads, good, derr := DecodeAll(raw)
		s.recoveredRecs = payloads
		s.recovery.Records = len(payloads)
		walBase, walBaseBytes = int64(len(payloads)), int64(good)
		if derr != nil {
			s.recovery.Truncated = true
			s.recovery.TruncatedBytes = int64(len(raw) - good)
			if err := s.fs.Truncate(wp, int64(good)); err != nil {
				return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	// Clean up every file that is not this generation's pair.
	for _, g := range gens {
		if g == chosen {
			continue
		}
		if snaps[g] && s.fs.Remove(snapPath(opts.Dir, g)) == nil {
			s.recovery.StaleFilesRemoved++
		}
		if wals[g] && s.fs.Remove(walPath(opts.Dir, g)) == nil {
			s.recovery.StaleFilesRemoved++
		}
	}
	for _, t := range tmps {
		if s.fs.Remove(filepath.Join(opts.Dir, t)) == nil {
			s.recovery.StaleFilesRemoved++
		}
	}

	s.w, err = openWAL(s.fs, wp)
	if err != nil {
		return nil, err
	}
	s.w.base, s.w.baseBytes = walBase, walBaseBytes
	s.recovery.Elapsed = time.Since(start)
	return s, nil
}

// scanDir inventories snapshot, WAL, and leftover temp files by name;
// gens lists every generation a snapshot or a WAL names, and 0, newest
// first.
func scanDir(fsys FS, dir string) (snaps, wals map[int64]bool, gens []int64, tmps []string, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	snaps, wals, gens = map[int64]bool{}, map[int64]bool{}, []int64{0}
	for _, name := range names {
		var g int64
		switch {
		case matchGen(name, "snap-", ".snap", &g):
			snaps[g] = true
			gens = append(gens, g)
		case matchGen(name, "wal-", ".log", &g):
			wals[g] = true
			gens = append(gens, g)
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, name)
		}
	}
	slices.SortFunc(gens, func(a, b int64) int { return cmp.Compare(b, a) })
	return snaps, wals, slices.Compact(gens), tmps, nil
}

// WALSegments lists the WAL segment files in dir, oldest generation
// first, without opening the store — Open truncates torn tails and
// removes stale generations, which a reader that must leave the directory
// as it found it (ftrm -wal-dump) cannot afford.
func WALSegments(dir string) ([]string, error) {
	_, wals, gens, _, err := scanDir(OSFS, dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for i := len(gens) - 1; i >= 0; i-- {
		if wals[gens[i]] {
			paths = append(paths, walPath(dir, gens[i]))
		}
	}
	return paths, nil
}

func matchGen(name, prefix, suffix string, g *int64) bool {
	if len(name) != len(prefix)+12+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var v int64
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + int64(c-'0')
	}
	*g = v
	return true
}

// TakeRecovered hands the owner what Open recovered, for it to replay:
// the snapshot payload (nil when recovery started from the empty state)
// and the WAL payloads that follow it, in append order. It hands them
// over once and drops its references, so the recovered image — the
// records are slices of one buffer holding the whole segment — lives only
// as long as the owner keeps it; a second call returns nil, nil.
func (s *Store) TakeRecovered() (snapshot []byte, records [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snapshot, records = s.recovered, s.recoveredRecs
	s.recovered, s.recoveredRecs = nil, nil
	return snapshot, records
}

// Recovery reports what Open found and repaired.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Handle identifies one appended record for Commit: the WAL segment it
// was written to plus its sequence within that segment. Binding the
// segment into the handle is what makes Commit safe across rotation — a
// handle from a rotated-out segment resolves against that segment's
// final synced state instead of waiting on the new, empty one. The zero
// Handle commits as a no-op.
type Handle struct {
	w   *wal
	seq int64
}

// Append journals one record payload, returning its commit handle. The
// record is ordered but not yet durable; pass the handle to Commit
// before acknowledging the mutation to a client.
func (s *Store) Append(payload []byte) (Handle, error) {
	s.mu.Lock()
	w := s.w
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return Handle{}, errors.New("store: closed")
	}
	seq, err := w.append(payload)
	if err != nil {
		return Handle{}, err
	}
	return Handle{w: w, seq: seq}, nil
}

// Commit makes the record behind the handle durable per the sync
// policy: under SyncAlways it group-commits and waits; under SyncNever
// it returns immediately. If the handle's
// segment has been rotated out by WriteSnapshot, the record is already
// durable (rotation syncs the outgoing segment before swapping) and
// Commit returns without touching the new segment.
func (s *Store) Commit(h Handle) error {
	if h.seq <= 0 || s.policy != SyncAlways {
		return nil
	}
	return h.w.waitSynced(h.seq)
}

// Sync forces everything appended so far to stable storage regardless
// of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	return w.syncNow()
}

// WriteSnapshot persists a full-state snapshot and rotates the WAL: the
// snapshot is written atomically under the next generation, a fresh WAL
// segment is opened, and the previous generation's files are removed.
// After WriteSnapshot returns, recovery will load this snapshot and
// replay only records appended after it. The caller must guarantee no
// Append races a WriteSnapshot (the RM calls both under its own state
// lock); Commit is rotation-safe on its own — handles are bound to
// their segment, and the pre-rotation sync makes every record in the
// outgoing segment durable before the swap.
func (s *Store) WriteSnapshot(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	// Make the outgoing segment durable so its commit waiters resolve
	// before the files move out from under them.
	if err := s.w.syncNow(); err != nil {
		return err
	}
	next := s.gen + 1
	if err := writeSnapshotFile(s.fs, snapPath(s.dir, next), payload); err != nil {
		return err
	}
	nw, err := openWAL(s.fs, walPath(s.dir, next))
	if err != nil {
		// The new snapshot is durable but we cannot journal against it;
		// keep running on the old generation (its snapshot/WAL pair is
		// still intact on disk) and surface the error.
		_ = s.fs.Remove(snapPath(s.dir, next))
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		_ = nw.close()
		_ = s.fs.Remove(walPath(s.dir, next))
		_ = s.fs.Remove(snapPath(s.dir, next))
		return err
	}

	old, oldGen := s.w, s.gen
	s.w, s.gen = nw, next
	s.snapshots++
	s.lastSnapLen = len(payload)

	old.mu.Lock()
	s.prevRecords += old.records
	s.prevBytes += old.bytes
	s.prevFsyncs += old.fsyncs
	s.prevFsyncTotal += old.fsyncTotal
	if old.fsyncMax > s.prevFsyncMax {
		s.prevFsyncMax = old.fsyncMax
	}
	old.mu.Unlock()
	// Best effort: the new generation is already durable, so a failure
	// here only leaves stale files for the next Open to clean up.
	_ = old.close()
	_ = s.fs.Remove(walPath(s.dir, oldGen))
	_ = s.fs.Remove(snapPath(s.dir, oldGen))
	return nil
}

// Stats returns cumulative I/O counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Generation:  s.gen,
		WALRecords:  s.prevRecords,
		WALBytes:    s.prevBytes,
		Fsyncs:      s.prevFsyncs,
		FsyncTotal:  s.prevFsyncTotal,
		FsyncMax:    s.prevFsyncMax,
		Snapshots:   s.snapshots,
		LastSnapLen: s.lastSnapLen,
	}
	s.w.mu.Lock()
	st.WALRecords += s.w.records
	st.WALBytes += s.w.bytes
	st.Unsynced = s.w.writtenSeq - s.w.syncedSeq
	st.Fsyncs += s.w.fsyncs
	st.FsyncTotal += s.w.fsyncTotal
	if s.w.fsyncMax > st.FsyncMax {
		st.FsyncMax = s.w.fsyncMax
	}
	s.w.mu.Unlock()
	return st
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Policy returns the store's sync policy.
func (s *Store) Policy() SyncPolicy { return s.policy }

// Close syncs and closes the active segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	w := s.w
	s.mu.Unlock()
	err := w.syncNow()
	if cerr := w.close(); err == nil {
		err = cerr
	}
	return err
}
