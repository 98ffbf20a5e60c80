package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
)

// FaultFS wraps a base FS (the real OS by default) with on-demand disk
// faults: failed fsyncs, short writes, ENOSPC, and corrupt reads. It
// also models the page cache: bytes written through a FaultFS file are
// buffered until the file is fsynced (or cleanly closed), and Crash()
// discards every unsynced buffer — so tests observe exactly what a
// machine loss, not just a process kill, would leave on disk.
//
// The durability model it implements:
//
//   - Write appends to an in-memory buffer for the path. The base file
//     is created at open (metadata reaches the disk) but holds no new
//     bytes yet.
//   - Sync flushes the buffer to the base file and fsyncs it. An
//     injected fsync failure keeps the buffer in the "page cache".
//   - Close flushes without claiming durability — a cleanly exiting
//     process leaves its page cache behind, and only a machine crash
//     (Crash) loses it.
//   - Crash discards every unsynced buffer and poisons open handles, so
//     the base files hold exactly the synced prefix. Reopening the same
//     directory afterwards (through this FS or the OS) recovers from
//     that prefix.
//
// Reads see base + buffered bytes, like the page cache would serve
// them. All methods are safe for concurrent use.
type FaultFS struct {
	mu   sync.Mutex
	base FS
	bufs map[string][]byte // unsynced bytes per open path
	gen  int               // bumped by Crash; stale handles fail

	failFsync   int // countdown of syncs to fail; -1 = all
	shortWrites int // countdown of writes to cut in half
	failWrites  int // countdown of writes to fail outright
	writeErr    error
	corruptRead int // countdown of reads to bit-flip
}

// errCrashed poisons file handles that survived a simulated machine
// crash: any further use is a test bug, not a store bug.
var errCrashed = errors.New("store: faultfs: file handle from before the crash")

// ErrInjectedFsync is the error injected fsync failures return (wrapped).
var ErrInjectedFsync = errors.New("store: faultfs: injected fsync failure")

// NewFaultFS returns a FaultFS over the real OS filesystem.
func NewFaultFS() *FaultFS { return &FaultFS{base: OSFS, bufs: map[string][]byte{}} }

// FailFsync arms the next n fsyncs to fail (n < 0: every fsync fails
// until rearmed with 0). The unsynced buffer is kept, mirroring a disk
// that reports the error without persisting the data.
func (f *FaultFS) FailFsync(n int) { f.mu.Lock(); f.failFsync = n; f.mu.Unlock() }

// ShortWrites arms the next n writes to persist only half their bytes
// and return io.ErrShortWrite.
func (f *FaultFS) ShortWrites(n int) { f.mu.Lock(); f.shortWrites = n; f.mu.Unlock() }

// FailENOSPC arms the next n writes to fail with ENOSPC, persisting
// nothing.
func (f *FaultFS) FailENOSPC(n int) {
	f.mu.Lock()
	f.failWrites, f.writeErr = n, syscall.ENOSPC
	f.mu.Unlock()
}

// CorruptReads arms the next n ReadFile calls to flip one bit in the
// middle of the returned data.
func (f *FaultFS) CorruptReads(n int) { f.mu.Lock(); f.corruptRead = n; f.mu.Unlock() }

// Crash simulates a machine loss: every unsynced buffer is discarded
// and every open handle is poisoned. The base files are left holding
// exactly what had been fsynced.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	f.bufs = map[string][]byte{}
	f.gen++
	f.mu.Unlock()
}

// UnsyncedBytes reports how many written-but-unsynced bytes a Crash
// would lose right now, for test assertions.
func (f *FaultFS) UnsyncedBytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, b := range f.bufs { //det:unordered a sum
		n += len(b)
	}
	return n
}

type faultFile struct {
	fs   *FaultFS
	path string
	base File
	gen  int
}

func (f *FaultFS) open(path string, base File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &faultFile{fs: f, path: path, base: base, gen: f.gen}, nil
}

// OpenAppend opens a WAL segment. The base file is created immediately
// (like the OS would), but writes buffer until Sync.
func (f *FaultFS) OpenAppend(path string) (File, error) {
	base, err := f.base.OpenAppend(path)
	return f.open(path, base, err)
}

// Create opens a snapshot temp file; same buffering as OpenAppend.
func (f *FaultFS) Create(path string) (File, error) {
	f.mu.Lock()
	delete(f.bufs, path) // O_TRUNC discards any buffered bytes too
	f.mu.Unlock()
	base, err := f.base.Create(path)
	return f.open(path, base, err)
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.gen != w.fs.gen {
		return 0, errCrashed
	}
	if w.fs.failWrites != 0 {
		if w.fs.failWrites > 0 {
			w.fs.failWrites--
		}
		return 0, fmt.Errorf("write %s: %w", w.path, w.fs.writeErr)
	}
	if w.fs.shortWrites != 0 {
		if w.fs.shortWrites > 0 {
			w.fs.shortWrites--
		}
		n := len(p) / 2
		w.fs.bufs[w.path] = append(w.fs.bufs[w.path], p[:n]...)
		return n, io.ErrShortWrite
	}
	w.fs.bufs[w.path] = append(w.fs.bufs[w.path], p...)
	return len(p), nil
}

// flushLocked moves the path's buffer into the base file. Caller holds
// fs.mu.
func (w *faultFile) flushLocked() error {
	buf := w.fs.bufs[w.path]
	if len(buf) == 0 {
		return nil
	}
	if _, err := w.base.Write(buf); err != nil {
		return err
	}
	delete(w.fs.bufs, w.path)
	return nil
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.gen != w.fs.gen {
		return errCrashed
	}
	if w.fs.failFsync != 0 {
		if w.fs.failFsync > 0 {
			w.fs.failFsync--
		}
		return fmt.Errorf("sync %s: %w", w.path, ErrInjectedFsync)
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	return w.base.Sync()
}

func (w *faultFile) Close() error {
	w.fs.mu.Lock()
	if w.gen != w.fs.gen {
		w.fs.mu.Unlock()
		return w.base.Close() // release the descriptor regardless
	}
	err := w.flushLocked()
	w.fs.mu.Unlock()
	if cerr := w.base.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile serves base + unsynced buffer, like the page cache, with the
// corrupt-read fault applied if armed.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	b, err := f.base.ReadFile(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := f.bufs[path]
	if err != nil {
		if len(buf) == 0 {
			return nil, err
		}
		b = nil // file exists only as buffered bytes
	}
	out := make([]byte, 0, len(b)+len(buf))
	out = append(out, b...)
	out = append(out, buf...)
	if f.corruptRead != 0 && len(out) > 0 {
		if f.corruptRead > 0 {
			f.corruptRead--
		}
		out[len(out)/2] ^= 0x40
	}
	return out, nil
}

func (f *FaultFS) MkdirAll(dir string) error { return f.base.MkdirAll(dir) }

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.base.ReadDir(dir) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	delete(f.bufs, newpath) // the clobbered target's unsynced bytes die with it
	if buf, ok := f.bufs[oldpath]; ok {
		f.bufs[newpath] = buf
		delete(f.bufs, oldpath)
	}
	f.mu.Unlock()
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	delete(f.bufs, path)
	f.mu.Unlock()
	return f.base.Remove(path)
}

// Truncate repairs a torn tail during recovery; by then the buffer is
// empty (the crash discarded it), so it cuts the base file directly.
func (f *FaultFS) Truncate(path string, size int64) error {
	f.mu.Lock()
	delete(f.bufs, path)
	f.mu.Unlock()
	return f.base.Truncate(path, size)
}

func (f *FaultFS) SyncDir(dir string) error { return f.base.SyncDir(dir) }
