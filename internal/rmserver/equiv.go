package rmserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flowtime/internal/store"
)

// VerifyRecoveryEquivalence is the durability oracle: it checks, on a
// live server, that the state a fresh process would rebuild from the
// store (snapshot + WAL replay) is equivalent to the state the running
// process holds in memory. Under the server's state lock it captures the
// in-memory snapshot and copies the store directory byte-for-byte —
// simulating a SIGKILL at this instant, with no graceful close — then
// opens the copy through the full recovery path and compares normalized
// states.
//
// Normalization removes exactly what recovery is specified to change:
// in-flight leases are requeued (their nodes died with the process), so
// leases are dropped. Everything else must match byte-for-byte; a
// snapshot holds no per-job in-flight volume (it is the leases' grants)
// and no fault counter (they are the process's own).
//
// scratch must be an empty or nonexistent directory; the copy is left
// behind on failure for forensics and removed on success.
func (s *Server) VerifyRecoveryEquivalence(scratch string) error {
	if s.store == nil {
		return errors.New("rmserver: recovery equivalence requires a store")
	}

	s.mu.Lock()
	live, err := s.st.Snapshot()
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("rmserver: live snapshot: %w", err)
	}
	err = copyDir(s.store.Dir(), scratch)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("rmserver: copy store dir: %w", err)
	}

	st, err := store.Open(store.Options{Dir: scratch, Policy: store.SyncNever})
	if err != nil {
		return fmt.Errorf("rmserver: open store copy: %w", err)
	}
	rebuilt, rebuildErr := func() ([]byte, error) {
		defer st.Close()
		// The rebuilt server must restart in the same role: a follower's
		// recovery leaves leases in place (promotion requeues them), and a
		// primary's epoch claim is already journaled so recovery rebuilds
		// the same epoch rather than claiming a new one.
		s2, err := New(Config{
			SlotDur:     s.cfg.SlotDur,
			Scheduler:   s.cfg.Scheduler,
			LeaseExpiry: s.cfg.LeaseExpiry,
			Store:       st,
			Follower:    s.cfg.Follower,
			LeaderURL:   s.cfg.LeaderURL,
		})
		if err != nil {
			return nil, fmt.Errorf("rmserver: recover from copy: %w", err)
		}
		s2.mu.Lock()
		defer s2.mu.Unlock()
		return s2.st.Snapshot()
	}()
	if rebuildErr != nil {
		return rebuildErr
	}

	a, err := normalizeSnapshot(live)
	if err != nil {
		return fmt.Errorf("rmserver: normalize live state: %w", err)
	}
	b, err := normalizeSnapshot(rebuilt)
	if err != nil {
		return fmt.Errorf("rmserver: normalize recovered state: %w", err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("rmserver: recovery-equivalence violation (store copy kept at %s):\nlive:      %s\nrecovered: %s",
			scratch, a, b)
	}
	return os.RemoveAll(scratch)
}

// normalizeSnapshot strips the state recovery is allowed to change: the
// leases, which it requeues wholesale. What is left comes back with its
// fields in name order.
func normalizeSnapshot(payload []byte) ([]byte, error) {
	var st map[string]json.RawMessage
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, err
	}
	delete(st, "leases")
	return json.Marshal(st)
}

// copyDir copies the flat store directory (WAL segments + snapshots)
// into dst, creating it. Called with the server lock held so no append
// races the copy: the result is exactly what a crash at this instant
// would leave on disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
