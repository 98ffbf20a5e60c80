// Command ftrm runs the FlowTime resource manager: a miniature YARN-like
// RM speaking the rmproto HTTP API (JSON, binary heartbeats), with a
// pluggable scheduler.
//
// Usage:
//
//	ftrm [-addr :8030] [-sched FlowTime] [-slot 10s] [-slack 60s]
//	     [-lease-expiry 16] [-drain-timeout 30s] [-manual-tick]
//	     [-state-dir DIR] [-snapshot-every 256] [-fsync always]
//	     [-replica-of URL] [-advertise URL]
//	     [-adhoc-gate]
//	ftrm -wal-dump DIR
//
// The FlowTime scheduler publishes every replan as a versioned plan
// revision, reported under /v1/status "plan". The plan is derived state:
// it is not journaled, and a restarted or promoted RM's scheduler plans
// again from revision 0 (DESIGN.md §6.2). -adhoc-gate additionally routes
// every ad-hoc submission through the leftover-capacity admission gate:
// the job is admitted or rejected in O(window) against the scheduler's
// plan's slack without waking the planner, and rejected until that plan's
// first revision exists. It requires the FlowTime scheduler.
//
// When the FlowTime scheduler's flow planner cannot answer, it steps
// down its degradation ladder (exact lexicographic flow → greedy EDF
// water-fill) instead of failing the slot; /metrics and the final
// status line report the ladder state.
//
// With -state-dir the RM is durable: every state mutation is journaled
// to a write-ahead log in that directory and the full state is
// snapshotted every -snapshot-every slots (and after a completed
// drain). On startup the RM recovers from the latest snapshot plus the
// WAL tail — a torn tail from a crash mid-write is truncated, not
// fatal — and logs a recovery summary. -fsync selects the durability
// discipline: "always" (fsync before acknowledging a submission or
// answering GET /v1/status, and before a tick releases its grants if
// anything journaled ahead of it is still unsynced; confirms, hand-offs
// and tick records ride the next commit) or "never" (leave flushing to
// the OS).
//
// With -replica-of the RM starts as a warm standby of the primary at
// the given URL (requires -state-dir): it pulls the primary's WAL over
// the replication API, ingests every record durably, applies it through
// the replay path so its in-memory state stays hot, and rejects
// mutations with not_leader until POST /repl/v1/promote turns it into
// the primary. Promotion increments the durable leadership epoch —
// which fences the deposed primary's late writes out of the stream —
// requeues the orphaned leases, and starts granting; agents follow the
// not_leader redirect and re-register. -advertise is this RM's own URL,
// handed to peers as the leader hint and used to fence the old primary
// after promotion. The follower pulls over the primary's one -addr.
//
// -wal-dump DIR starts nothing: it prints the WAL in the state directory
// DIR as one JSON object per record per line and exits. The journal is
// binary on disk; this is how to read it. The directory is only read — a
// torn tail stays where it is, reported on standard error — so it is safe
// beside a running RM.
//
// With -manual-tick the RM advances only on POST /v1/tick (useful for
// scripted demos and tests); otherwise it ticks every slot duration.
// Node managers (ftnode) register and heartbeat; ftsubmit submits traces.
//
// On SIGINT/SIGTERM the RM drains instead of exiting mid-slot: it stops
// issuing new leases, keeps ticking so in-flight quanta can confirm or
// expire (up to -drain-timeout), logs a final status snapshot including
// any work a shutdown strands, writes a final state snapshot (so the
// next start replays zero WAL records), and then shuts the HTTP server
// down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmserver"
	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
	"flowtime/internal/store"
)

func main() {
	log.SetFlags(log.LstdFlags)
	var (
		addr         = flag.String("addr", ":8030", "listen address")
		schedName    = flag.String("sched", "FlowTime", "scheduler: FlowTime, CORA, EDF, Fair, FIFO, Morpheus")
		slot         = flag.Duration("slot", 10*time.Second, "scheduling slot duration")
		slack        = flag.Duration("slack", 60*time.Second, "FlowTime deadline slack")
		leaseExpiry  = flag.Int64("lease-expiry", 0, fmt.Sprintf("slots before an unconfirmed lease is reclaimed (0 = default %d; negative is refused)", rmstate.DefaultLeaseExpiry))
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight leases on shutdown")
		manualTick   = flag.Bool("manual-tick", false, "advance slots only via POST /v1/tick")
		stateDir     = flag.String("state-dir", "", "state directory for WAL + snapshots (empty = not durable)")
		snapEvery    = flag.Int64("snapshot-every", 256, "slots between state snapshots (with -state-dir)")
		fsyncPolicy  = flag.String("fsync", "always", "WAL fsync policy: always, never")
		replicaOf    = flag.String("replica-of", "", "run as a warm standby of the primary RM at this URL (requires -state-dir)")
		advertise    = flag.String("advertise", "", "this RM's own URL, used as the leader hint and for fencing")
		adhocGate    = flag.Bool("adhoc-gate", false, "gate ad-hoc admission on the leftover capacity of the scheduler's plan, rejecting until its first replan (FlowTime only)")
		walDump      = flag.String("wal-dump", "", "print the WAL in this state directory, one JSON object per record per line, and exit (read-only)")
	)
	flag.Parse()
	if *walDump != "" {
		if err := rmserver.DumpWAL(*walDump, os.Stdout, os.Stderr); err != nil {
			log.Println("ftrm:", err)
			os.Exit(1)
		}
		return
	}

	opts := options{
		addr:         *addr,
		schedName:    *schedName,
		slot:         *slot,
		slack:        *slack,
		leaseExpiry:  *leaseExpiry,
		drainTimeout: *drainTimeout,
		manualTick:   *manualTick,
		stateDir:     *stateDir,
		snapEvery:    *snapEvery,
		fsyncPolicy:  *fsyncPolicy,
		replicaOf:    *replicaOf,
		advertise:    *advertise,
		adhocGate:    *adhocGate,
	}
	if err := run(opts); err != nil {
		log.Println("ftrm:", err)
		os.Exit(1)
	}
}

type options struct {
	addr         string
	schedName    string
	slot         time.Duration
	slack        time.Duration
	leaseExpiry  int64
	drainTimeout time.Duration
	manualTick   bool
	stateDir     string
	snapEvery    int64
	fsyncPolicy  string
	replicaOf    string
	advertise    string
	adhocGate    bool
}

func run(o options) error {
	cfg := core.DefaultConfig()
	cfg.Slack = o.slack
	s, err := core.NewScheduler(o.schedName, nil, cfg)
	if err != nil {
		return err
	}

	if o.replicaOf != "" && o.stateDir == "" {
		return errors.New("-replica-of requires -state-dir (the follower's copy of the log must be durable)")
	}
	var st *store.Store
	if o.stateDir != "" {
		policy, err := store.ParseSyncPolicy(o.fsyncPolicy)
		if err != nil {
			return err
		}
		st, err = store.Open(store.Options{Dir: o.stateDir, Policy: policy})
		if err != nil {
			return err
		}
		defer st.Close()
	}

	rm, err := rmserver.New(rmserver.Config{
		SlotDur:     o.slot,
		Scheduler:   s,
		NodeExpiry:  3 * o.slot,
		LeaseExpiry: o.leaseExpiry,
		Store:       st,
		Follower:    o.replicaOf != "",
		LeaderURL:   o.replicaOf,
		AdHocGate:   o.adhocGate,
	})
	if err != nil {
		return err
	}
	if rec := rm.Recovery(); rec != nil {
		log.Printf("ftrm: recovered state-dir=%s slot=%d snapshot=%v records_replayed=%d orphan_leases_requeued=%d wal_truncated=%v stale_files_removed=%d in %dµs",
			o.stateDir, rec.Slot, rec.FromSnapshot, rec.RecordsReplayed, rec.OrphanLeasesRequeued, rec.WALTruncated, rec.StaleFilesRemoved, rec.Micros)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rm.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		log.Printf("ftrm: scheduler=%s slot=%v role=%s listening on %s", s.Name(), o.slot, rm.Role(), o.addr)
		errc <- srv.Serve(ln)
	}()
	if o.replicaOf != "" {
		// The pull loop runs until promotion (it then fences the old
		// primary and exits) or shutdown. The run loop below starts
		// ticking the moment the role flips to primary.
		go func() {
			err := rm.RunReplicator(ctx, rmserver.ReplicatorConfig{
				Primary: o.replicaOf,
				Self:    o.advertise,
				Logf:    log.Printf,
			})
			if err != nil && ctx.Err() == nil {
				log.Println("ftrm: replicator:", err)
			}
		}()
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if !o.manualTick {
		ticker = time.NewTicker(o.slot)
		defer ticker.Stop()
		tick = ticker.C
	}

	lastSnap := rm.Slot()
	for {
		select {
		case now := <-tick:
			// A follower neither ticks nor snapshots: its slot clock and WAL
			// generation track the primary's stream, which a local rotation
			// would tear from under the replicator. A fenced ex-primary is
			// still RolePrimary: its Tick answers ErrNotLeader, so its slot
			// stands still, and its shutdown snapshot holds no fenced epoch.
			if rm.Role() != rmserver.RolePrimary {
				continue
			}
			if err := rm.Tick(now); err != nil && !errors.Is(err, rmserver.ErrNotLeader) {
				log.Println("ftrm: tick:", err)
			}
			if st != nil && o.snapEvery > 0 && rm.Slot()-lastSnap >= o.snapEvery {
				if err := rm.WriteSnapshot(); err != nil {
					log.Println("ftrm: snapshot:", err)
				} else {
					lastSnap = rm.Slot()
				}
			}
		case <-ctx.Done():
			drain(rm, tick, o.drainTimeout)
			logFinalStatus(rm, s)
			if st != nil {
				// Final snapshot: a clean shutdown restarts with zero WAL
				// records to replay, whether or not the drain completed. The
				// drain above writes none: only Server.Drain, behind
				// POST /v1/drain with a wait, snapshots on completion.
				if err := rm.WriteSnapshot(); err != nil {
					log.Println("ftrm: final snapshot:", err)
				}
			}
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := srv.Shutdown(shutdownCtx)
			<-errc // wait for the serve goroutine to exit
			return err
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}

// drain stops new lease issue and keeps ticking (in auto-tick mode) until
// every in-flight quantum confirms or expires, or the timeout elapses.
// Heartbeats keep flowing during the drain because the HTTP server is
// still up. In manual-tick mode there is no run loop to advance slots, so
// the drain only waits for confirmations already on the wire.
func drain(rm *rmserver.Server, tick <-chan time.Time, timeout time.Duration) {
	rm.BeginDrain()
	st := rm.DrainStatus()
	log.Printf("ftrm: draining: %d leases outstanding, %d jobs unfinished", st.OutstandingLeases, len(st.UnfinishedJobs))
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		st = rm.DrainStatus()
		if st.Complete {
			log.Printf("ftrm: drain complete")
			return
		}
		select {
		case now := <-tick:
			if err := rm.Tick(now); err != nil && !errors.Is(err, rmserver.ErrNotLeader) {
				log.Println("ftrm: tick:", err)
			}
		case <-deadline.C:
			log.Printf("ftrm: drain timed out with %d leases outstanding", st.OutstandingLeases)
			return
		case <-time.After(100 * time.Millisecond):
			// Manual-tick mode has no ticker; poll for heartbeat-driven
			// confirmations instead of blocking forever.
		}
	}
}

// logFinalStatus records what the RM knew at exit: per-state job counts,
// fault counters, and every job a shutdown at this point strands.
func logFinalStatus(rm *rmserver.Server, s sched.Scheduler) {
	st := rm.Status()
	log.Printf("ftrm: final status: slot=%d nodes=%d jobs(pending=%d running=%d completed=%d missed=%d) leases_outstanding=%d",
		st.Slot, st.Nodes, st.Summary.Pending, st.Summary.Running, st.Summary.Completed, st.Summary.Missed, st.OutstandingLeases)
	log.Printf("ftrm: faults: requeued_quanta=%d expired_nodes=%d scheduler_panics=%d stale_confirms=%d best_effort_admissions=%d",
		st.Faults.RequeuedQuanta, st.Faults.ExpiredNodes, st.Faults.SchedulerPanics, st.Faults.StaleConfirms, st.Faults.BestEffortAdmissions)
	if d := st.Degradation; d != nil {
		log.Printf("ftrm: planner ladder: level=%s minmax_fallbacks=%d greedy_fallbacks=%d invalid_plans=%d reason=%q",
			d.Level, d.MinMaxFallbacks, d.GreedyFallbacks, d.InvalidPlans, d.Reason)
		log.Printf("ftrm: flow planner: max_flows=%d resumed=%d",
			d.LPColdStarts, d.LPWarmStarts)
	}
	if ft, ok := s.(*core.FlowTime); ok {
		fs := ft.Stats()
		handoffs, lapsed := rm.HandOffs()
		log.Printf("ftrm: flowtime: replans=%d adhoc_folds=%d adhoc_yields=%d adhoc_yielded=%v backfills=%d backfilled=%v handoffs=%d lapsed=%d",
			fs.Replans, fs.AdHocFolds, fs.AdHocYields, fs.AdHocYielded, fs.Backfills, fs.Backfilled, handoffs, lapsed)
	}
	if d := st.Durability; d != nil {
		log.Printf("ftrm: durability: fsync=%s generation=%d wal_records=%d wal_bytes=%d fsyncs=%d snapshots=%d",
			d.FsyncPolicy, d.Generation, d.WALRecords, d.WALBytes, d.Fsyncs, d.Snapshots)
	}
	if r := st.Replication; r != nil {
		log.Printf("ftrm: replication: role=%s epoch=%d fenced=%v follower_seen=%v lag_records=%d lag_bytes=%d",
			r.Role, r.Epoch, r.Fenced, r.FollowerSeen, r.LagRecords, r.LagBytes)
	}
	if p := st.Plan; p != nil {
		log.Printf("ftrm: plan: rev=%d from=%d n_slots=%d jobs=%d", p.Rev, p.From, p.NSlots, p.Jobs)
		if q := p.AdHoc; q != nil {
			log.Printf("ftrm: adhoc gate: admitted=%d rejected=%d rebases=%d rev=%d",
				q.Admitted, q.Rejected, q.Rebases, q.Rev)
		}
	}
	for _, j := range st.Jobs {
		if j.State != "completed" {
			log.Printf("ftrm: unfinished at exit: %s", j.ID)
		}
	}
}
