// Package rmproto defines the wire protocol of the miniature YARN-like
// resource manager (see internal/rmserver): node registration and
// heartbeats, workload submission, and status reporting. The paper
// deployed FlowTime inside YARN's resource manager; this protocol stands
// in for that integration surface. Bodies are JSON except a heartbeat's and
// a submission's, request and reply, which are binary (heartbeat.go,
// submit.go) like YARN's node heartbeat and client RPCs; errors are JSON
// everywhere. Read-path responses (status, metrics, log shipping) are
// gzipped when the request's Accept-Encoding asks; every other response is
// sent as encoded.
package rmproto

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/trace"
)

// Resources is the wire form of a resource vector.
type Resources struct {
	VCores   int64 `json:"vcores"`
	MemoryMB int64 `json:"memory_mb"`
}

// FromVector converts an internal vector to wire form.
func FromVector(v resource.Vector) Resources {
	return Resources{
		VCores:   v.Get(resource.VCores),
		MemoryMB: v.Get(resource.MemoryMB),
	}
}

// ToVector converts wire form to an internal vector.
func (r Resources) ToVector() resource.Vector {
	return resource.New(r.VCores, r.MemoryMB)
}

// Validate checks non-negativity.
func (r Resources) Validate() error {
	if r.VCores < 0 || r.MemoryMB < 0 {
		return fmt.Errorf("rmproto: negative resources %+v", r)
	}
	return nil
}

// RegisterNodeRequest announces a node manager to the resource manager.
type RegisterNodeRequest struct {
	NodeID   string    `json:"node_id"`
	Capacity Resources `json:"capacity"`
}

// RegisterNodeResponse acknowledges registration.
type RegisterNodeResponse struct {
	// HeartbeatMs is the interval the node should heartbeat at.
	HeartbeatMs int64 `json:"heartbeat_ms"`
}

// Quantum is one slot-sized work lease: the node runs the lease for one
// scheduling slot and reports it completed on its next heartbeat. Slot
// leases rather than task-length containers keep the protocol aligned
// with the paper's slot-based formulation (§V).
type Quantum struct {
	ID    string
	JobID string
	Grant Resources
	// DeadlineSlot is the RM slot by which the lease must be confirmed;
	// past it the RM reclaims the lease and requeues its volume.
	DeadlineSlot int64
}

// HeartbeatRequest reports node liveness and completed quanta. On the wire
// it is binary (AppendHeartbeatRequest), as is HeartbeatResponse.
type HeartbeatRequest struct {
	NodeID    string
	Completed []string
}

// HeartbeatResponse carries new work for the node.
type HeartbeatResponse struct {
	Launch []Quantum
}

// SubmitWorkflowRequest submits one deadline-aware workflow, reusing the
// trace schema. On the wire it is binary (AppendSubmitWorkflowRequest), as
// are SubmitAdHocRequest and SubmitResponse.
type SubmitWorkflowRequest struct {
	Workflow trace.WorkflowRecord
}

// SubmitAdHocRequest submits one ad-hoc job.
type SubmitAdHocRequest struct {
	Job trace.AdHocRecord
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	Accepted bool
	// ID names what was submitted: the workflow's ID, or AdHocJobID of the
	// job's. The wire does not carry it; the client fills it in.
	ID string
	// BestEffort is true when the workflow was admitted without a
	// feasible deadline decomposition (admission control): its jobs run
	// from leftover capacity and the deadline is not guaranteed.
	BestEffort bool
}

// JobStatus reports one job's state.
type JobStatus struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"` // "deadline" or "adhoc"
	WorkflowID string `json:"workflow_id,omitempty"`
	State      string `json:"state"` // "pending", "running", "completed"
	// Delivered and Total expose the job's confirmed volume against its
	// required volume, so exactly-once delivery is externally checkable
	// (a double-counted confirm would show Delivered > Total).
	Delivered Resources `json:"delivered"`
	Total     Resources `json:"total"`
	// DeadlineSec and CompletedSec are offsets from the RM epoch.
	// DeadlineSec is the end of the job's decomposed window, not its
	// workflow's deadline, and Missed is judged against it: a workflow can
	// meet its deadline with jobs Missed.
	DeadlineSec  int64 `json:"deadline_sec,omitempty"`
	CompletedSec int64 `json:"completed_sec,omitempty"`
	Missed       bool  `json:"missed,omitempty"`
	// BestEffort marks jobs admitted without a feasible decomposition.
	BestEffort bool `json:"best_effort,omitempty"`
}

// StatusResponse is the cluster status snapshot.
type StatusResponse struct {
	// Slot is the RM's current scheduling slot.
	Slot int64 `json:"slot"`
	// Nodes is the number of live node managers.
	Nodes int `json:"nodes"`
	// Capacity is the current total cluster capacity.
	Capacity Resources `json:"capacity"`
	// Jobs lists jobs sorted by ID. On the wire these are live jobs only —
	// completed jobs travel in Done — and, for a request with
	// live_after=S (QueryLiveAfter) under the answering RM's instance and
	// S no greater than its change number as the request arrived (any
	// LiveChange it sent before), only those whose entry changed after S;
	// otherwise every live job. A reader that wants the whole table calls
	// Fold; what rmserver's Client.Status and Server.Status return is
	// already folded: every known job, Done nil, LiveChange 0.
	Jobs []JobStatus `json:"jobs"`
	// Done carries completed jobs; nil once folded into Jobs.
	Done *DoneJobs `json:"done,omitempty"`
	// LiveChange is the change number the live jobs are current to, in
	// the numbering of Done.Instance: a reader that keeps every live
	// entry it was sent, drops the ones Done completes and sends
	// live_after=LiveChange next time is sent only what changed since.
	LiveChange int64 `json:"live_change,omitempty"`
	// Summary counts the jobs by state, completed ones included.
	Summary JobSummary `json:"summary"`
	// Draining is true once a drain has begun: the RM stops issuing new
	// leases and waits for in-flight quanta to confirm or expire.
	Draining bool `json:"draining,omitempty"`
	// OutstandingLeases is the number of issued-but-unconfirmed quanta.
	OutstandingLeases int `json:"outstanding_leases"`
	// Faults carries the RM's fault-tolerance counters.
	Faults FaultCounters `json:"faults"`
	// Degradation is the scheduler's planner-ladder telemetry, present
	// only when the scheduler maintains a degradation ladder (FlowTime).
	Degradation *DegradationStatus `json:"degradation,omitempty"`
	// Recovery summarizes the crash recovery the RM performed at startup;
	// present only when the RM started from a state directory.
	Recovery *RecoveryStatus `json:"recovery,omitempty"`
	// Durability carries WAL/snapshot counters; present only when the RM
	// runs with a state store attached.
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// Replication reports the RM's role in a primary/follower pair;
	// present only when the RM runs with a state store attached.
	Replication *ReplicationStatus `json:"replication,omitempty"`
	// Plan reports the scheduler's live plan; present when the scheduler
	// publishes one (sched.PlanStreamer).
	Plan *PlanStatus `json:"plan,omitempty"`
	// AtRisk lists, by workflow ID, the workflows the last replan found
	// short; omitted when none is. Derived, not journaled: a restarted or
	// promoted RM rebuilds it at its first replan.
	AtRisk []WorkflowRisk `json:"at_risk,omitempty"`
}

// WorkflowRisk is one workflow at risk: a job of it cannot be fitted in
// its window. The slots [CutFromSlot, CutToSlot) are those the replan's
// min cuts saturate; SinceSlot is the slot of the first replan of the
// run of replans that have found it short.
type WorkflowRisk struct {
	WorkflowID  string `json:"workflow"`
	CutFromSlot int64  `json:"cut_from_slot"`
	CutToSlot   int64  `json:"cut_to_slot"`
	SinceSlot   int64  `json:"since_slot"`
}

// DoneJobs is the completed-job block of GET /v1/status. A completed
// job's status never changes again, so the RM keeps these in an
// append-only archive in completion order and a reader need fetch each
// entry only once: GET /v1/status?done_after=N&instance=T answers with
// Jobs = archive[N:Total] when T is the answering RM's Instance and
// N <= Total, and with the whole archive (From 0) otherwise — no
// parameters, an RM that restarted, a follower that took over. The
// reader keeps archive[:Total] and sends done_after=Total next time.
type DoneJobs struct {
	// Instance names one RM process's archive (16 hex digits); a cursor
	// taken under another instance is meaningless.
	Instance string `json:"instance"`
	// From is the archive index of Jobs[0]; Total the archive's length.
	From  int         `json:"from"`
	Total int         `json:"total"`
	Jobs  []JobStatus `json:"jobs"`
}

// JobSummary counts jobs by state. Missed counts deadline jobs past
// their deadline, completed or not, so it overlaps the other three.
type JobSummary struct {
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Missed    int `json:"missed"`
}

// Fold replaces Jobs with every job of the status — the live ones it
// carries plus archive, the completed ones in any order — sorted by ID
// in a slice of its own, and clears Done and LiveChange. Jobs must be
// every live job and archive is Done.Jobs for a response fetched from 0;
// a reader with cursors passes the live jobs and the archive it has
// accumulated. An archive already in ID order (ArchiveIndex) is not
// sorted again: the live jobs, sorted, are merged into it in one pass.
func (r *StatusResponse) Fold(archive []JobStatus) {
	if !slices.IsSortedFunc(archive, compareID) {
		archive = sortedByID(archive)
	}
	slices.SortFunc(r.Jobs, compareID)
	r.Jobs, r.Done, r.LiveChange = mergeByID(r.Jobs, archive), nil, 0
}

// ArchiveIndex is one RM instance's completed-job archive in ID order,
// kept up to date as the archive grows: the block new since the last call
// is sorted and merged in, so a fold never sorts the whole archive. It is
// not safe for concurrent use.
type ArchiveIndex struct {
	instance string
	byID     []JobStatus // the archive's first len(byID) entries
}

// ByID returns archive, instance's archive in completion order, in ID
// order, in a slice that is the index's own: Fold copies it. An archive of
// another instance, or shorter than the last one, starts the index over.
func (x *ArchiveIndex) ByID(instance string, archive []JobStatus) []JobStatus {
	if instance != x.instance || len(archive) < len(x.byID) {
		*x = ArchiveIndex{instance: instance}
	}
	if len(archive) > len(x.byID) {
		x.byID = mergeByID(x.byID, sortedByID(archive[len(x.byID):]))
	}
	return x.byID
}

func compareID(a, b JobStatus) int { return strings.Compare(a.ID, b.ID) }

// sortedByID is a copy of jobs in ID order.
func sortedByID(jobs []JobStatus) []JobStatus {
	out := slices.Clone(jobs)
	slices.SortFunc(out, compareID)
	return out
}

// mergeByID merges two ID-sorted lists into a new one.
func mergeByID(a, b []JobStatus) []JobStatus {
	out := make([]JobStatus, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].ID < b[0].ID {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// PlanStatus reports the scheduler's live multi-slot plan. It is not
// journaled: a restarted or promoted RM reports its own scheduler's plan,
// from revision 0, and a follower, whose scheduler never runs, reports 0.
type PlanStatus struct {
	// Rev is the live plan's revision (0 before this process's first
	// replan).
	Rev int64 `json:"rev"`
	// From and NSlots bound the plan window in absolute slots.
	From   int64 `json:"from"`
	NSlots int64 `json:"n_slots"`
	// Jobs is the number of jobs holding allocations in the plan.
	Jobs int `json:"jobs"`
	// DiffsApplied and Rebases counted the plan diffs and rebases the RM
	// journaled when it kept the plan durable. It keeps none now, and they
	// read 0.
	DiffsApplied int64 `json:"diffs_applied"`
	Rebases      int64 `json:"rebases"`
	// AdHoc reports the ad-hoc admission gate; present only when the
	// gate is enabled.
	AdHoc *AdHocQueueStatus `json:"adhoc,omitempty"`
}

// AdHocQueueStatus reports the ad-hoc admission gate's counters.
type AdHocQueueStatus struct {
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Rebases  int64 `json:"rebases"`
	// Rev is the plan revision the gate's current window was built from
	// (-1 before the first plan).
	Rev int64 `json:"rev"`
}

// ReplicationStatus reports one RM's position in a replicated pair.
type ReplicationStatus struct {
	// Role is "primary" or "follower"; RoleCode is 1 or 0 for metrics.
	Role     string `json:"role"`
	RoleCode int    `json:"role_code"`
	// Epoch is the leadership epoch. Every promotion increments it; a
	// node presenting a higher epoch fences the current primary.
	Epoch int64 `json:"epoch"`
	// Fenced is true on a deposed primary that has rejected leadership:
	// it refuses all mutations until restarted as a replica.
	Fenced bool `json:"fenced,omitempty"`
	// LeaderURL is where this node believes the leader is (followers and
	// fenced primaries only).
	LeaderURL string `json:"leader_url,omitempty"`
	// Watermark is this node's own durable stream position.
	Watermark ReplWatermark `json:"watermark"`
	// Follower* report the primary's view of its follower (primary role
	// only, after the follower's first ship request).
	FollowerSeen      bool          `json:"follower_seen,omitempty"`
	FollowerWatermark ReplWatermark `json:"follower_watermark,omitempty"`
	// LagRecords/LagBytes are how far the follower trails the primary's
	// stream head (0 when no follower has checked in).
	LagRecords int64 `json:"lag_records"`
	LagBytes   int64 `json:"lag_bytes"`
}

// ReplWatermark is the wire form of a store watermark: a snapshot
// generation plus the count of WAL records (and framed bytes) of that
// generation already held.
type ReplWatermark struct {
	Gen     int64 `json:"gen"`
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// ShipRequest is a follower's poll for the next log batch. Epoch is the
// follower's current leadership epoch — the fencing token: a primary
// that receives a request with a higher epoch knows it has been deposed
// and fences itself.
type ShipRequest struct {
	Epoch int64         `json:"epoch"`
	From  ReplWatermark `json:"from"`
	// FollowerURL is where the polling follower can be reached, so a
	// primary fenced by this request can point clients at it.
	FollowerURL string `json:"follower_url,omitempty"`
}

// ShipResponse carries one replication batch (the wire form of the
// store's ShipBatch), stamped with the primary's epoch so a follower
// rejects late batches from a deposed primary, and with its slot
// duration so a follower started under another -slot refuses every batch.
type ShipResponse struct {
	Epoch       int64         `json:"epoch"`
	SlotDurNS   int64         `json:"slot_dur_ns"`
	SnapInstall bool          `json:"snap_install,omitempty"`
	Gen         int64         `json:"gen"`
	Snapshot    []byte        `json:"snapshot,omitempty"`
	FromSeq     int64         `json:"from_seq"`
	Records     [][]byte      `json:"records,omitempty"`
	Head        ReplWatermark `json:"head"`
}

// PromoteRequest asks a follower to take over as primary.
type PromoteRequest struct{}

// PromoteResponse acknowledges a promotion.
type PromoteResponse struct {
	Role  string `json:"role"`
	Epoch int64  `json:"epoch"`
	Slot  int64  `json:"slot"`
	// OrphanLeasesRequeued counts leases the promotion reclaimed (they
	// were bound to the old primary's node registrations).
	OrphanLeasesRequeued int `json:"orphan_leases_requeued"`
}

// FenceRequest tells a (deposed) primary that a higher epoch exists.
type FenceRequest struct {
	Epoch  int64  `json:"epoch"`
	Leader string `json:"leader,omitempty"`
}

// FenceResponse acknowledges a fence.
type FenceResponse struct {
	Fenced bool  `json:"fenced"`
	Epoch  int64 `json:"epoch"`
}

// RecoveryStatus summarizes the crash recovery performed at RM startup.
type RecoveryStatus struct {
	// Performed is true whenever the RM started with a state store, even
	// if the directory was empty.
	Performed bool `json:"performed"`
	// FromSnapshot is true when a snapshot was restored; SnapshotSlot is
	// the slot clock it captured.
	FromSnapshot bool  `json:"from_snapshot,omitempty"`
	SnapshotSlot int64 `json:"snapshot_slot,omitempty"`
	// RecordsReplayed is the number of WAL records replayed on top of the
	// snapshot (or the empty state).
	RecordsReplayed int `json:"records_replayed"`
	// WALTruncated is true when a torn or corrupt WAL tail was cut;
	// TruncatedBytes is how much was discarded.
	WALTruncated   bool  `json:"wal_truncated,omitempty"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// OrphanLeasesRequeued counts in-flight leases reclaimed at recovery
	// (their node bindings died with the previous process).
	OrphanLeasesRequeued int `json:"orphan_leases_requeued,omitempty"`
	// StaleFilesRemoved counts leftover files from older generations or
	// interrupted rotations cleaned up at startup.
	StaleFilesRemoved int `json:"stale_files_removed,omitempty"`
	// Slot is the slot clock after recovery; Micros is how long recovery
	// took (store scan plus replay).
	Slot   int64 `json:"slot"`
	Micros int64 `json:"micros"`
}

// DurabilityStatus carries the state store's cumulative I/O counters.
type DurabilityStatus struct {
	FsyncPolicy       string `json:"fsync_policy"`
	Generation        int64  `json:"generation"`
	WALRecords        int64  `json:"wal_records"`
	WALBytes          int64  `json:"wal_bytes"`
	Fsyncs            int64  `json:"fsyncs"`
	FsyncTotalMicros  int64  `json:"fsync_total_micros"`
	FsyncMaxMicros    int64  `json:"fsync_max_micros"`
	Snapshots         int64  `json:"snapshots"`
	LastSnapshotBytes int    `json:"last_snapshot_bytes"`
	// WALUnsyncedRecords counts journaled records no fsync has covered
	// yet — under the always policy, the heartbeat confirms and hand-offs
	// and the tick records waiting for the next commit, a tick's or a
	// submission's — as of when the status was taken, before GET /v1/status
	// ran its own barrier.
	WALUnsyncedRecords int64 `json:"wal_unsynced_records"`
	// CommitError is set when the barrier GET /v1/status runs before
	// answering failed: the jobs in this response may include confirms
	// the log could not make durable.
	CommitError string `json:"commit_error,omitempty"`
}

// DegradationStatus is the wire form of sched.DegradationStatus.
type DegradationStatus struct {
	// Level is the ladder rung of the current plan ("full", "minmax",
	// "greedy"); LevelCode is its numeric form (0, 1, 2) for metrics.
	Level     string `json:"level"`
	LevelCode int    `json:"level_code"`
	// Reason is why the ladder last stepped down (empty at full).
	Reason          string `json:"reason,omitempty"`
	MinMaxFallbacks int64  `json:"minmax_fallbacks"`
	GreedyFallbacks int64  `json:"greedy_fallbacks"`
	InvalidPlans    int64  `json:"invalid_plans"`
	// LPColdStarts counts the planner's max-flow computations started
	// from a zero flow, LPWarmStarts those resumed from a parent's flow
	// above a cut (the wire names predate the flow planner).
	LPWarmStarts int64 `json:"lp_warm_starts"`
	LPColdStarts int64 `json:"lp_cold_starts"`
}

// FaultCounters tallies control-plane fault handling since this RM
// process started. The counters are the process's telemetry, not
// journaled state: they restart at zero with the process, on a follower
// (which counts nothing while it replicates) and after a promotion, where
// the promoted RM counts from the orphan leases it requeued. A restarted
// RM likewise counts only what it decides, starting with its recovery's
// orphan requeues.
type FaultCounters struct {
	// RequeuedQuanta counts leases reclaimed (node eviction, node
	// re-registration, or lease expiry) and returned to the job pool.
	RequeuedQuanta int64 `json:"requeued_quanta"`
	// ExpiredNodes counts node managers evicted for missed heartbeats.
	ExpiredNodes int64 `json:"expired_nodes"`
	// SchedulerPanics counts scheduler invocations that panicked and were
	// converted into no-grant slots.
	SchedulerPanics int64 `json:"scheduler_panics"`
	// StaleConfirms counts completion reports for quanta the RM no longer
	// tracks (already confirmed, requeued, or from a prior incarnation).
	StaleConfirms int64 `json:"stale_confirms"`
	// BestEffortAdmissions counts workflows admitted without a feasible
	// deadline decomposition (see SubmitResponse.BestEffort).
	BestEffortAdmissions int64 `json:"best_effort_admissions"`
}

// DrainRequest asks the RM to stop issuing leases. With WaitMs > 0 the
// call blocks up to that long for in-flight quanta to confirm or expire.
type DrainRequest struct {
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// DrainResponse reports drain progress.
type DrainResponse struct {
	Draining bool `json:"draining"`
	// Complete is true when no leases remain outstanding.
	Complete bool `json:"complete"`
	// OutstandingLeases is the number of still-unconfirmed quanta.
	OutstandingLeases int `json:"outstanding_leases"`
	// UnfinishedJobs lists jobs that have not completed, i.e. work that a
	// shutdown at this point would strand.
	UnfinishedJobs []string `json:"unfinished_jobs,omitempty"`
}

// Error is the wire form of an error response.
type Error struct {
	Message string `json:"error"`
	// Code is a machine-readable error class; see the Code* constants.
	Code string `json:"code,omitempty"`
	// Leader, set with CodeNotLeader, is the URL of the node the server
	// believes is the current leader (may be empty).
	Leader string `json:"leader,omitempty"`
}

// Machine-readable error codes.
const (
	// CodeUnknownNode is returned to heartbeats from nodes the RM does not
	// know (never registered, expired, or the RM restarted). The node
	// agent should re-register and resume.
	CodeUnknownNode = "unknown_node"
	// CodeNotLeader is returned (with HTTP 503) to mutations sent to a
	// follower or a fenced ex-primary. The Leader field, when set, points
	// at the node to redirect to; agents rotate through their RM list
	// otherwise.
	CodeNotLeader = "not_leader"
	// CodeCommitFailed is returned (with HTTP 503) when the RM could not
	// make a mutation's WAL record durable. The mutation did not take
	// effect durably; clients should back off and retry rather than
	// hot-loop against a failing disk.
	CodeCommitFailed = "commit_failed"
)

// Heartbeat timing defaults.
const (
	// DefaultSlot is the RM's default scheduling slot.
	DefaultSlot = 10 * time.Second
)

// Query parameters of GET PathStatus. QueryDoneAfter and QueryInstance
// are the archive cursor (DoneJobs). QueryLiveAfter is the live cursor:
// live_after=S leaves out the live jobs whose entry has not changed since
// change number S (StatusResponse.LiveChange) of the instance named by
// QueryInstance; without it, under another instance or with S above the
// RM's current number every live job is sent. A malformed number in
// either cursor is a 400.
const (
	QueryDoneAfter = "done_after"
	QueryInstance  = "instance"
	QueryLiveAfter = "live_after"
)

// API paths.
const (
	PathRegister  = "/v1/nodes/register"
	PathHeartbeat = "/v1/nodes/heartbeat"
	PathWorkflows = "/v1/workflows"
	PathAdHoc     = "/v1/adhoc"
	PathStatus    = "/v1/status" // query: QueryDoneAfter, QueryInstance, QueryLiveAfter
	PathTick      = "/v1/tick"
	PathDrain     = "/v1/drain"
	// PathDebugTicks serves the RM's records of its last ticks, oldest
	// first: their phase timings and replans (rmserver.TickRecord).
	PathDebugTicks = "/v1/debug/ticks"
	// Replication control plane (primary/follower pairs).
	PathShip    = "/repl/v1/ship"
	PathPromote = "/repl/v1/promote"
	PathFence   = "/repl/v1/fence"
)
