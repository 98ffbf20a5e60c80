package store

import (
	"errors"
	"testing"
)

// pump replicates primary → follower until the follower is caught up,
// returning how many batches carried data. Fails the test if shipping
// does not converge.
func pump(t *testing.T, primary, follower *Store, maxBytes int) int {
	t.Helper()
	carried := 0
	for i := 0; i < 1000; i++ {
		batch, err := primary.ShipFrom(follower.Watermark(), maxBytes)
		if err != nil {
			t.Fatalf("ShipFrom: %v", err)
		}
		if batch.Empty() {
			return carried
		}
		carried++
		if _, _, err := follower.Ingest(batch); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	t.Fatal("shipping did not converge in 1000 batches")
	return carried
}

func TestShipRoundTrip(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	follower := open(t, fdir, SyncAlways)
	appendAll(t, primary, "a", "b", "c", "d")

	pump(t, primary, follower, 0)
	if got, want := follower.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark %v, want %v", got, want)
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}

	// The shipped records are durable and recoverable on the follower.
	f2 := open(t, fdir, SyncAlways)
	defer f2.Close()
	_, got := recovered(f2)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("follower recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("follower recovered %v, want %v", got, want)
		}
	}
}

func TestShipSnapshotInstallAfterRotation(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	appendAll(t, primary, "pre-1", "pre-2")
	if err := primary.WriteSnapshot([]byte("SNAP-STATE")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	appendAll(t, primary, "post-1", "post-2")

	// A follower starting from nothing must get a snapshot install: the
	// pre-rotation records no longer exist as WAL frames anywhere.
	follower := open(t, fdir, SyncAlways)
	batch, err := primary.ShipFrom(follower.Watermark(), 0)
	if err != nil {
		t.Fatalf("ShipFrom: %v", err)
	}
	if !batch.SnapInstall || batch.Gen != 1 || string(batch.Snapshot) != "SNAP-STATE" {
		t.Fatalf("want snapshot install at gen 1, got %+v", batch)
	}
	if _, _, err := follower.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	pump(t, primary, follower, 0)
	follower.Close()

	f2 := open(t, fdir, SyncAlways)
	defer f2.Close()
	snap, got := recovered(f2)
	if snap != "SNAP-STATE" {
		t.Fatalf("follower snapshot %q, want SNAP-STATE", snap)
	}
	if len(got) != 2 || got[0] != "post-1" || got[1] != "post-2" {
		t.Fatalf("follower records %v, want [post-1 post-2]", got)
	}
}

func TestShipWatermarkSurvivesReopen(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	follower := open(t, fdir, SyncAlways)
	appendAll(t, primary, "a", "b", "c")
	pump(t, primary, follower, 0)

	before := follower.Watermark()
	follower.Close()

	// More records land on the primary while the follower is down.
	appendAll(t, primary, "d", "e")

	f2 := open(t, fdir, SyncAlways)
	defer f2.Close()
	if got := f2.Watermark(); got != before {
		t.Fatalf("watermark after reopen %v, want %v", got, before)
	}
	// Resumption is incremental — no snapshot install needed.
	batch, err := primary.ShipFrom(f2.Watermark(), 0)
	if err != nil {
		t.Fatalf("ShipFrom: %v", err)
	}
	if batch.SnapInstall {
		t.Fatalf("mid-stream resume forced a snapshot install: %+v", batch)
	}
	if len(batch.Records) != 2 {
		t.Fatalf("resume batch carried %d records, want 2", len(batch.Records))
	}
	pump(t, primary, f2, 0)
	if got, want := f2.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark %v, want %v", got, want)
	}
}

func TestShipFollowerAheadResyncs(t *testing.T) {
	// A primary that crashed and lost an unsynced tail can restart
	// *behind* its own follower. The follower must be reset to the
	// primary's stream, not left holding records the primary never had.
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	follower := open(t, fdir, SyncAlways)
	defer follower.Close()
	appendAll(t, primary, "a", "b")
	pump(t, primary, follower, 0)

	// Simulate the lost tail by handing the follower records directly.
	extra, _ := follower.Append([]byte("ghost"))
	if err := follower.Commit(extra); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	batch, err := primary.ShipFrom(follower.Watermark(), 0)
	if err != nil {
		t.Fatalf("ShipFrom: %v", err)
	}
	if !batch.SnapInstall {
		t.Fatalf("follower-ahead did not trigger snapshot install: %+v", batch)
	}
	if _, _, err := follower.Ingest(batch); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	pump(t, primary, follower, 0)
	if got, want := follower.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark %v, want %v", got, want)
	}
}

func TestShipBatchesAreCapped(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	primary := open(t, pdir, SyncAlways)
	defer primary.Close()
	follower := open(t, fdir, SyncAlways)
	defer follower.Close()
	for i := 0; i < 20; i++ {
		appendAll(t, primary, "payload-payload-payload")
	}
	// A cap far below the total forces multiple batches, each making
	// progress.
	if batches := pump(t, primary, follower, 64); batches < 2 {
		t.Fatalf("expected multiple capped batches, got %d", batches)
	}
	if got, want := follower.Watermark(), primary.Watermark(); got != want {
		t.Fatalf("follower watermark %v, want %v", got, want)
	}
}

func TestIngestRejectsMisalignedBatch(t *testing.T) {
	fdir := t.TempDir()
	follower := open(t, fdir, SyncAlways)
	defer follower.Close()
	if _, _, err := follower.Ingest(ShipBatch{Gen: 3, FromSeq: 0}); !errors.Is(err, ErrShipMismatch) {
		t.Fatalf("gen mismatch: got %v, want ErrShipMismatch", err)
	}
	if _, _, err := follower.Ingest(ShipBatch{Gen: 0, FromSeq: 7, Records: [][]byte{[]byte("x")}}); !errors.Is(err, ErrShipMismatch) {
		t.Fatalf("sequence gap: got %v, want ErrShipMismatch", err)
	}
	// Overlapping records are skipped, not duplicated.
	appendAll(t, follower, "a", "b")
	fresh, wm, err := follower.Ingest(ShipBatch{Gen: 0, FromSeq: 0, Records: [][]byte{[]byte("a"), []byte("b"), []byte("c")}})
	if err != nil {
		t.Fatalf("overlapping ingest: %v", err)
	}
	if len(fresh) != 1 || string(fresh[0]) != "c" || wm.Records != 3 {
		t.Fatalf("overlapping ingest: fresh=%q wm=%v, want [c] and 3 records", fresh, wm)
	}
}
