package store

import (
	"errors"
	"io"
	"strings"
	"syscall"
	"testing"
)

func openFault(t *testing.T, dir string, ffs *FaultFS, policy SyncPolicy) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Policy: policy, FS: ffs})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestSyncWindowCrash is the durability contract between syncs:
// with -fsync never plus an explicit Sync, a machine crash loses at most
// the records appended since that sync — and the survivors are exactly
// a prefix of the append order, never reordered, never duplicated.
func TestSyncWindowCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncNever)

	appendAll(t, s, "a", "b", "c")
	if err := s.Sync(); err != nil { // the only sync before the crash
		t.Fatalf("Sync: %v", err)
	}
	appendAll(t, s, "d", "e") // acknowledged but inside the sync window
	if ffs.UnsyncedBytes() == 0 {
		t.Fatal("window records unexpectedly reached disk")
	}

	ffs.Crash()

	s2 := openFault(t, dir, ffs, SyncNever)
	defer s2.Close()
	_, got := recovered(s2)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want exactly the synced prefix %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want exactly the synced prefix %v", got, want)
		}
	}
	if s2.Recovery().Truncated {
		t.Error("a lost sync window is not a torn tail; Truncated should be false")
	}
}

// TestSyncWindowFsyncFaultCrash injects an fsync failure between
// the appends and the crash: the failed sync must not extend the
// durable prefix, and recovery still sees a clean prefix with no
// reordering or duplication.
func TestSyncWindowFsyncFaultCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncNever)

	appendAll(t, s, "a", "b")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendAll(t, s, "c", "d")

	ffs.FailFsync(1)
	if err := s.Sync(); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("faulted Sync: got %v, want ErrInjectedFsync", err)
	}
	// The error is sticky: the store refuses further appends rather than
	// acknowledging records it may not be able to make durable.
	if _, err := s.Append([]byte("e")); err == nil {
		t.Fatal("append after failed fsync succeeded; sticky error expected")
	}

	ffs.Crash()
	s2 := openFault(t, dir, ffs, SyncNever)
	defer s2.Close()
	_, got := recovered(s2)
	want := []string{"a", "b"}
	if len(got) != len(want) || got[0] != "a" || got[1] != "b" {
		t.Fatalf("recovered %v, want exactly the pre-fault synced prefix %v", got, want)
	}
}

func TestFsyncFaultSurfacesOnCommit(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncAlways)

	appendAll(t, s, "durable")
	ffs.FailFsync(1)
	h, err := s.Append([]byte("doomed"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Commit(h); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("Commit under fsync fault: got %v, want ErrInjectedFsync", err)
	}

	ffs.Crash()
	s2 := openFault(t, dir, ffs, SyncAlways)
	defer s2.Close()
	_, got := recovered(s2)
	if len(got) != 1 || got[0] != "durable" {
		t.Fatalf("recovered %v, want [durable]", got)
	}
}

func TestShortWriteLeavesTruncatableTail(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncAlways)

	appendAll(t, s, "good-1", "good-2")
	ffs.ShortWrites(1)
	if _, err := s.Append([]byte("half-written-record")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: got %v, want io.ErrShortWrite", err)
	}
	// Closing flushes the half frame to disk — the torn tail a real
	// short write leaves behind.
	_ = s.Close()

	s2 := openFault(t, dir, ffs, SyncAlways)
	defer s2.Close()
	_, got := recovered(s2)
	if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
		t.Fatalf("recovered %v, want the intact prefix [good-1 good-2]", got)
	}
	if !s2.Recovery().Truncated || s2.Recovery().TruncatedBytes == 0 {
		t.Errorf("short-write tail not truncated: %+v", s2.Recovery())
	}
}

func TestENOSPCSurfacesAndPreservesPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncAlways)

	appendAll(t, s, "kept-1", "kept-2")
	ffs.FailENOSPC(1)
	if _, err := s.Append([]byte("no-space")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full-disk append: got %v, want ENOSPC", err)
	}
	_ = s.Close()

	s2 := openFault(t, dir, ffs, SyncAlways)
	defer s2.Close()
	_, got := recovered(s2)
	if len(got) != 2 || got[0] != "kept-1" || got[1] != "kept-2" {
		t.Fatalf("recovered %v, want [kept-1 kept-2]", got)
	}
}

func TestCorruptReadTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncAlways)
	appendAll(t, s, "one", "two", "three", "four")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A bit flip in the middle of the WAL read: recovery keeps the clean
	// prefix and truncates the rest rather than replaying garbage.
	ffs.CorruptReads(1)
	s2 := openFault(t, dir, ffs, SyncAlways)
	_, got := recovered(s2)
	if len(got) >= 4 {
		t.Fatalf("recovered %v despite corrupt read", got)
	}
	for i, want := range []string{"one", "two", "three", "four"}[:len(got)] {
		if got[i] != want {
			t.Fatalf("recovered %v is not a prefix of the original records", got)
		}
	}
	if !s2.Recovery().Truncated {
		t.Errorf("corrupt read did not mark truncation: %+v", s2.Recovery())
	}
	s2.Close()
}

func TestCorruptSnapshotReadFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	s := openFault(t, dir, ffs, SyncAlways)
	appendAll(t, s, "a")
	if err := s.WriteSnapshot([]byte("STATE")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The only snapshot generation reads corrupt: recovery must refuse to
	// continue from the empty state and must preserve the files.
	ffs.CorruptReads(1)
	if _, err := Open(Options{Dir: dir, FS: ffs}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("corrupt-snapshot open: got %v, want loud refusal", err)
	}
	// With the fault cleared the directory is still fully recoverable.
	s2 := openFault(t, dir, ffs, SyncAlways)
	defer s2.Close()
	if snap, _ := recovered(s2); snap != "STATE" {
		t.Fatalf("snapshot %q, want STATE", snap)
	}
}

// TestFollowerIngestFaults exercises the fault knobs on the follower
// ingest path: a failed batch fsync and a full disk both surface to the
// replicator, and after reopening the follower store shipping resumes
// from the durable watermark and converges.
func TestFollowerIngestFaults(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	ffs := NewFaultFS()
	follower := openFault(t, fdir, ffs, SyncAlways)

	appendAll(t, primary, "a", "b", "c")
	batch, err := primary.ShipFrom(follower.Watermark(), 0)
	if err != nil {
		t.Fatalf("ShipFrom: %v", err)
	}
	ffs.FailFsync(1)
	if _, _, err := follower.Ingest(batch); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("ingest under fsync fault: got %v, want ErrInjectedFsync", err)
	}

	// The follower recovers by reopening its store; the watermark it
	// reports never includes the unsynced batch.
	ffs.Crash()
	f2 := openFault(t, fdir, ffs, SyncAlways)
	if wm := f2.Watermark(); wm.Records != 0 {
		t.Fatalf("post-crash watermark %v, want 0 records", wm)
	}

	// A full disk mid-ingest surfaces too, then shipping converges once
	// the fault clears.
	batch, err = primary.ShipFrom(f2.Watermark(), 0)
	if err != nil {
		t.Fatalf("ShipFrom: %v", err)
	}
	ffs.FailENOSPC(1)
	if _, _, err := f2.Ingest(batch); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ingest under ENOSPC: got %v, want ENOSPC", err)
	}
	_ = f2.Close()
	f3 := openFault(t, fdir, ffs, SyncAlways)
	defer f3.Close()
	pump(t, primary, f3, 0)
	if got, want := f3.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark %v, want %v", got, want)
	}
}
