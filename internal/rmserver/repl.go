// Replication: a primary RM ships its WAL (and snapshot generations) to
// one warm-standby follower, which ingests every record durably and
// applies it through the same idempotent replay path recovery uses — so
// the follower's in-memory state tracks the primary's and promotion is
// replay-to-watermark plus re-lease, not a cold rebuild.
//
// Leadership is an epoch number journaled as replicated state: a promotion
// journals one above the highest epoch the process has seen — its own, or
// a higher one a fence or ship request brought — before it grants
// anything. The epoch seen is what a process compares, reports and fences
// by:
//
//   - A ship request carries the follower's epoch; a primary that sees
//     a higher epoch knows a promotion happened behind its back and
//     fences itself (rejects all further mutations with not_leader).
//   - A ship response carries the primary's epoch; a follower rejects
//     batches below its own epoch, so a deposed primary's late writes
//     can never reach the replicated stream.
//   - The promoted primary best-effort fences its old primary by URL,
//     so agents that still talk to it get redirected promptly.
//
// Fencing, like drain, is volatile: a fenced primary stays fenced for the
// life of the process and rejoins by restarting as a replica. Fenced
// status and the epoch seen are not journaled, so a restarted ex-primary
// comes back at its own journaled epoch, fenced again by the first ship
// request or fence that carries a higher one.
package rmserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmstate"
	"flowtime/internal/store"
)

// Role is an RM's position in a replicated pair.
type Role int

const (
	// RoleFollower ingests the shipped log and serves read-only status.
	RoleFollower Role = iota
	// RolePrimary grants leases and ships its log.
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

// replState is the primary's view of its follower, updated by ship
// requests.
type replState struct {
	hasFollower bool
	followerWM  store.Watermark
}

// Role returns the server's current role.
func (s *Server) Role() Role {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// Epoch returns the highest leadership epoch this process has seen: its
// journaled epoch, or a higher one a fence or a ship request brought.
func (s *Server) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// leaderCheckLocked rejects mutations on a server that is not the
// acting primary.
func (s *Server) leaderCheckLocked() error {
	if s.role != RolePrimary || s.fenced {
		return &NotLeaderError{Leader: s.leaderURL, Fenced: s.fenced}
	}
	return nil
}

// ShipLog serves one replication batch to a polling follower. The
// request's epoch is the fencing token: a higher epoch than our own
// means a promotion happened without us — we self-fence and reject. A
// watermark no follower can hold is refused before anything is touched.
func (s *Server) ShipLog(req rmproto.ShipRequest) (rmproto.ShipResponse, error) {
	from := store.Watermark{Gen: req.From.Gen, Records: req.From.Records, Bytes: req.From.Bytes}
	if err := from.Validate(); err != nil {
		return rmproto.ShipResponse{}, fmt.Errorf("rmserver: ship: %w", err)
	}
	s.mu.Lock()
	if s.store == nil {
		s.mu.Unlock()
		return rmproto.ShipResponse{}, errors.New("rmserver: replication requires a state store")
	}
	if req.Epoch > s.seen {
		s.seen = req.Epoch
		s.fenced = true
		if req.FollowerURL != "" {
			s.leaderURL = req.FollowerURL
		}
		leader := s.leaderURL
		s.mu.Unlock()
		return rmproto.ShipResponse{}, &NotLeaderError{Leader: leader, Fenced: true}
	}
	if err := s.leaderCheckLocked(); err != nil {
		s.mu.Unlock()
		return rmproto.ShipResponse{}, err
	}
	epoch := s.seen
	s.repl.hasFollower = true
	s.repl.followerWM = from
	s.mu.Unlock()

	batch, err := s.store.ShipFrom(from, 0)
	if err != nil {
		return rmproto.ShipResponse{}, fmt.Errorf("rmserver: ship from %v: %w", from, err)
	}
	return rmproto.ShipResponse{
		Epoch:       epoch,
		SlotDurNS:   int64(s.cfg.SlotDur),
		SnapInstall: batch.SnapInstall,
		Gen:         batch.Gen,
		Snapshot:    batch.Snapshot,
		FromSeq:     batch.FromSeq,
		Records:     batch.Records,
		Head:        rmproto.ReplWatermark{Gen: batch.Head.Gen, Records: batch.Head.Records, Bytes: batch.Head.Bytes},
	}, nil
}

// IngestShipment applies one shipped batch on a follower: the records
// are made durable in the follower's store first, then applied to the
// in-memory state through the idempotent replay path, so the follower
// stays hot. Batches from an epoch below ours are a deposed primary's
// late writes and are rejected, as is every batch from a primary at
// another slot duration. Returns the number of records applied.
func (s *Server) IngestShipment(resp rmproto.ShipResponse) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.role != RoleFollower {
		return 0, &NotLeaderError{Fenced: false}
	}
	if resp.Epoch < s.seen {
		return 0, fmt.Errorf("rmserver: rejecting batch from deposed primary (epoch %d < ours %d): %w",
			resp.Epoch, s.seen, ErrNotLeader)
	}
	// A record holds no slot duration, so a record replayed under another
	// one would misread every job's volume: the batch is refused whole.
	if got := time.Duration(resp.SlotDurNS); got != s.cfg.SlotDur {
		return 0, fmt.Errorf("rmserver: rejecting batch from a primary at slot=%v, this follower runs slot=%v", got, s.cfg.SlotDur)
	}
	s.seen = resp.Epoch
	defer s.appliedLocked()

	batch := store.ShipBatch{
		SnapInstall: resp.SnapInstall,
		Gen:         resp.Gen,
		Snapshot:    resp.Snapshot,
		FromSeq:     resp.FromSeq,
		Records:     resp.Records,
	}
	if batch.Empty() {
		return 0, nil
	}
	// A snapshot install is restored before the store takes it and swapped
	// in after, so one this follower cannot restore changes nothing.
	var installed *rmstate.State
	if resp.SnapInstall {
		installed = rmstate.New(s.cfg.SlotDur, s.cfg.LeaseExpiry)
		if resp.Snapshot != nil {
			var err error
			if installed, err = rmstate.Restore(s.cfg.SlotDur, s.cfg.LeaseExpiry, resp.Snapshot); err != nil {
				return 0, fmt.Errorf("rmserver: restore shipped snapshot: %w", err)
			}
		}
	}
	fresh, _, err := s.store.Ingest(batch)
	if err != nil {
		return 0, err
	}
	if installed != nil {
		// Cursors into the archive it replaces must not survive it.
		s.st, s.instance = installed, newInstance()
	}
	for i, payload := range fresh {
		if err := s.applyRecordLocked(payload); err != nil {
			return i, fmt.Errorf("rmserver: apply shipped record %d/%d: %w", i+1, len(fresh), err)
		}
	}
	return len(fresh), nil
}

// Promote turns a follower into the primary: the epoch is incremented
// and journaled (fencing every lower epoch out of the stream), every
// recovered lease is requeued — their node bindings belonged to the old
// primary — and the server starts granting. Idempotent: promoting an
// acting primary is a no-op.
func (s *Server) Promote() (rmproto.PromoteResponse, error) {
	s.mu.Lock()
	if s.role == RolePrimary && !s.fenced {
		resp := rmproto.PromoteResponse{Role: s.role.String(), Epoch: s.seen, Slot: s.st.Slot()}
		s.mu.Unlock()
		return resp, nil
	}
	eh, err := s.journalLocked(rmstate.Record{Epoch: &rmstate.RecEpoch{Epoch: s.seen + 1}})
	orphans := s.st.DecideRequeue(anyLease)
	var rh store.Handle
	if err == nil && len(orphans.QIDs) > 0 {
		rh, err = s.requeueLocked(orphans)
	}
	epoch, slot := s.seen, s.st.Slot()
	s.mu.Unlock()
	if err != nil {
		return rmproto.PromoteResponse{}, err
	}

	// The epoch record must be durable before we grant anything under it.
	if err := s.commitRecord(eh); err != nil {
		return rmproto.PromoteResponse{}, err
	}
	if err := s.commitRecord(rh); err != nil {
		return rmproto.PromoteResponse{}, err
	}

	s.mu.Lock()
	s.role = RolePrimary
	s.fenced = false
	s.leaderURL = ""
	s.mu.Unlock()
	return rmproto.PromoteResponse{
		Role:                 RolePrimary.String(),
		Epoch:                epoch,
		Slot:                 slot,
		OrphanLeasesRequeued: len(orphans.QIDs),
	}, nil
}

// Fence tells this server a higher epoch exists: if it was the acting
// primary it stops accepting mutations and redirects to the new leader.
// A fence at or below the highest epoch seen is stale and rejected. The
// epoch is seen, not journaled: no durable state changes.
func (s *Server) Fence(req rmproto.FenceRequest) (rmproto.FenceResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch <= s.seen {
		return rmproto.FenceResponse{Fenced: false, Epoch: s.seen},
			fmt.Errorf("rmserver: fence with stale epoch %d (ours is %d)", req.Epoch, s.seen)
	}
	s.seen = req.Epoch
	s.fenced = true
	if req.Leader != "" {
		s.leaderURL = req.Leader
	}
	return rmproto.FenceResponse{Fenced: true, Epoch: s.seen}, nil
}

// ReplicatorConfig parameterizes RunReplicator.
type ReplicatorConfig struct {
	// Primary is the URL of the RM to replicate from; required.
	Primary string
	// Self is this server's own advertised URL, sent with ship requests
	// and used to fence the old primary after a promotion.
	Self string
	// Interval paces the poll loop when caught up (default 100ms).
	Interval time.Duration
	// HTTPClient performs the ship/fence calls; nil uses
	// http.DefaultClient. The network chaos tests inject a fault-wrapped
	// client here so the replication link itself is chaos-testable.
	HTTPClient *http.Client
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// RunReplicator runs the follower's pull loop against the primary: poll
// for the next batch at the follower's durable watermark, ingest, and
// repeat — immediately while catching up, paced by Interval when
// caught up. It returns when ctx is done or the server is promoted; on
// promotion it best-effort fences the old primary so lingering agents
// get redirected. Transient primary failures (it may be down — that is
// the scenario replication exists for) are retried forever.
func (s *Server) RunReplicator(ctx context.Context, cfg ReplicatorConfig) error {
	if s.store == nil {
		return errors.New("rmserver: replication requires a state store")
	}
	if cfg.Primary == "" {
		return errors.New("rmserver: replicator needs a primary URL")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	client := NewClient(cfg.Primary, cfg.HTTPClient)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.Role() == RolePrimary {
			fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, ferr := client.Fence(fctx, rmproto.FenceRequest{Epoch: s.Epoch(), Leader: cfg.Self})
			cancel()
			if ferr != nil {
				logf("ftrm replicator: promoted; fencing old primary %s failed: %v (it may be dead — that is fine)", cfg.Primary, ferr)
			} else {
				logf("ftrm replicator: promoted; old primary %s fenced", cfg.Primary)
			}
			return nil
		}

		wm := s.store.Watermark()
		resp, err := client.Ship(ctx, rmproto.ShipRequest{
			Epoch:       s.Epoch(),
			From:        rmproto.ReplWatermark{Gen: wm.Gen, Records: wm.Records, Bytes: wm.Bytes},
			FollowerURL: cfg.Self,
		})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logf("ftrm replicator: ship from %s: %v (will retry)", cfg.Primary, err)
			if !sleepCtx(ctx, interval) {
				return ctx.Err()
			}
			continue
		}
		n, err := s.IngestShipment(resp)
		if err != nil {
			// A mismatch self-heals on the next poll (the watermark is
			// re-read and the primary re-ships, with a snapshot install if
			// the streams diverged); anything else is logged and retried.
			logf("ftrm replicator: ingest: %v", err)
			if !sleepCtx(ctx, interval) {
				return ctx.Err()
			}
			continue
		}
		if n > 0 {
			continue // keep draining the backlog at full speed
		}
		if !sleepCtx(ctx, interval) {
			return ctx.Err()
		}
	}
}

// sleepCtx sleeps d, returning false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
