package rmserver

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowtime/internal/rmproto"
)

// Handler returns the RM's HTTP API (see rmproto for paths and types).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+rmproto.PathRegister, func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, func(req rmproto.RegisterNodeRequest) (rmproto.RegisterNodeResponse, error) {
			return s.RegisterNode(req, time.Now())
		})
	})
	mux.HandleFunc("POST "+rmproto.PathHeartbeat, handleBinary(rmproto.HeartbeatMediaType,
		"a heartbeat body is "+rmproto.HeartbeatMediaType+", as rmproto.AppendHeartbeatRequest encodes it",
		rmproto.DecodeHeartbeatRequest,
		func(req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
			return s.Heartbeat(req, time.Now())
		},
		rmproto.AppendHeartbeatResponse))
	mux.HandleFunc("POST "+rmproto.PathDrain, func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, func(req rmproto.DrainRequest) (rmproto.DrainResponse, error) {
			if req.WaitMs <= 0 {
				s.BeginDrain()
				return s.DrainStatus(), nil
			}
			ctx, cancel := context.WithTimeout(r.Context(), time.Duration(req.WaitMs)*time.Millisecond)
			defer cancel()
			return s.Drain(ctx), nil
		})
	})
	mux.HandleFunc("POST "+rmproto.PathWorkflows, handleBinary(rmproto.SubmitMediaType,
		"a workflow submission is "+rmproto.SubmitMediaType+", as rmproto.AppendSubmitWorkflowRequest encodes it and ftsubmit -trace sends it",
		rmproto.DecodeSubmitWorkflowRequest, s.SubmitWorkflow, rmproto.AppendSubmitResponse))
	mux.HandleFunc("POST "+rmproto.PathAdHoc, handleBinary(rmproto.SubmitMediaType,
		"an ad-hoc submission is "+rmproto.SubmitMediaType+", as rmproto.AppendSubmitAdHocRequest encodes it and ftsubmit -trace sends it",
		rmproto.DecodeSubmitAdHocRequest, s.SubmitAdHoc, rmproto.AppendSubmitResponse))
	mux.HandleFunc("POST "+rmproto.PathShip, func(w http.ResponseWriter, r *http.Request) {
		if resp, ok := callJSON(w, r, s.ShipLog); ok {
			s.writeReadPath(w, r, "application/json", encodeJSON(resp))
		}
	})
	mux.HandleFunc("POST "+rmproto.PathPromote, func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, func(rmproto.PromoteRequest) (rmproto.PromoteResponse, error) {
			return s.Promote()
		})
	})
	mux.HandleFunc("POST "+rmproto.PathFence, func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, s.Fence)
	})
	mux.HandleFunc("POST "+rmproto.PathTick, func(w http.ResponseWriter, r *http.Request) {
		if err := s.Tick(time.Now()); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrNotLeader) || errors.Is(err, ErrCommitFailed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Slot int64 `json:"slot"`
		}{Slot: s.Slot()})
	})
	mux.HandleFunc("GET "+rmproto.PathDebugTicks, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Ticks())
	})
	mux.HandleFunc("GET "+rmproto.PathStatus, func(w http.ResponseWriter, r *http.Request) {
		cur, err := parseStatusQuery(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.writeReadPath(w, r, "application/json", encodeJSON(s.syncedStatus(cur)))
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := s.statusLocked(false, 0)
		s.mu.Unlock()
		w := new(bytes.Buffer) // the body, sent whole below
		fmt.Fprintf(w, "# TYPE flowtime_rm_slot counter\nflowtime_rm_slot %d\n", st.Slot)
		fmt.Fprintf(w, "# TYPE flowtime_rm_nodes gauge\nflowtime_rm_nodes %d\n", st.Nodes)
		fmt.Fprintf(w, "# TYPE flowtime_rm_capacity_vcores gauge\nflowtime_rm_capacity_vcores %d\n", st.Capacity.VCores)
		fmt.Fprintf(w, "# TYPE flowtime_rm_capacity_memory_mb gauge\nflowtime_rm_capacity_memory_mb %d\n", st.Capacity.MemoryMB)
		fmt.Fprintf(w, "# TYPE flowtime_rm_jobs_pending gauge\nflowtime_rm_jobs_pending %d\n", st.Summary.Pending)
		fmt.Fprintf(w, "# TYPE flowtime_rm_jobs_running gauge\nflowtime_rm_jobs_running %d\n", st.Summary.Running)
		fmt.Fprintf(w, "# TYPE flowtime_rm_jobs_completed counter\nflowtime_rm_jobs_completed %d\n", st.Summary.Completed)
		fmt.Fprintf(w, "# TYPE flowtime_rm_jobs_missed counter\nflowtime_rm_jobs_missed %d\n", st.Summary.Missed)
		fmt.Fprintf(w, "# TYPE flowtime_rm_leases_outstanding gauge\nflowtime_rm_leases_outstanding %d\n", st.OutstandingLeases)
		fmt.Fprintf(w, "# TYPE flowtime_rm_draining gauge\nflowtime_rm_draining %d\n", boolToInt(st.Draining))
		fmt.Fprintf(w, "# TYPE flowtime_rm_quanta_requeued counter\nflowtime_rm_quanta_requeued %d\n", st.Faults.RequeuedQuanta)
		fmt.Fprintf(w, "# TYPE flowtime_rm_nodes_expired counter\nflowtime_rm_nodes_expired %d\n", st.Faults.ExpiredNodes)
		fmt.Fprintf(w, "# TYPE flowtime_rm_scheduler_panics counter\nflowtime_rm_scheduler_panics %d\n", st.Faults.SchedulerPanics)
		fmt.Fprintf(w, "# TYPE flowtime_rm_confirms_stale counter\nflowtime_rm_confirms_stale %d\n", st.Faults.StaleConfirms)
		fmt.Fprintf(w, "# TYPE flowtime_rm_best_effort_admissions counter\nflowtime_rm_best_effort_admissions %d\n", st.Faults.BestEffortAdmissions)
		fmt.Fprintf(w, "# TYPE flowtime_workflows_at_risk gauge\nflowtime_workflows_at_risk %d\n", len(st.AtRisk))
		if d := st.Degradation; d != nil {
			fmt.Fprintf(w, "# TYPE flowtime_sched_degrade_level gauge\nflowtime_sched_degrade_level %d\n", d.LevelCode)
			fmt.Fprintf(w, "# TYPE flowtime_sched_fallback_minmax_total counter\nflowtime_sched_fallback_minmax_total %d\n", d.MinMaxFallbacks)
			fmt.Fprintf(w, "# TYPE flowtime_sched_fallback_greedy_total counter\nflowtime_sched_fallback_greedy_total %d\n", d.GreedyFallbacks)
			fmt.Fprintf(w, "# TYPE flowtime_sched_invalid_plans_total counter\nflowtime_sched_invalid_plans_total %d\n", d.InvalidPlans)
			fmt.Fprintf(w, "# TYPE flowtime_lp_warm_starts_total counter\nflowtime_lp_warm_starts_total %d\n", d.LPWarmStarts)
			fmt.Fprintf(w, "# TYPE flowtime_lp_cold_starts_total counter\nflowtime_lp_cold_starts_total %d\n", d.LPColdStarts)
		}
		if d := st.Durability; d != nil {
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_records_total counter\nflowtime_rm_wal_records_total %d\n", d.WALRecords)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_bytes_total counter\nflowtime_rm_wal_bytes_total %d\n", d.WALBytes)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_unsynced_records gauge\nflowtime_rm_wal_unsynced_records %d\n", d.WALUnsyncedRecords)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_fsyncs_total counter\nflowtime_rm_wal_fsyncs_total %d\n", d.Fsyncs)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_fsync_micros_total counter\nflowtime_rm_wal_fsync_micros_total %d\n", d.FsyncTotalMicros)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_fsync_micros_max gauge\nflowtime_rm_wal_fsync_micros_max %d\n", d.FsyncMaxMicros)
			fmt.Fprintf(w, "# TYPE flowtime_rm_snapshots_total counter\nflowtime_rm_snapshots_total %d\n", d.Snapshots)
			fmt.Fprintf(w, "# TYPE flowtime_rm_snapshot_bytes gauge\nflowtime_rm_snapshot_bytes %d\n", d.LastSnapshotBytes)
			fmt.Fprintf(w, "# TYPE flowtime_rm_wal_generation gauge\nflowtime_rm_wal_generation %d\n", d.Generation)
		}
		if rp := st.Replication; rp != nil {
			fmt.Fprintf(w, "# TYPE flowtime_repl_role gauge\nflowtime_repl_role %d\n", rp.RoleCode)
			fmt.Fprintf(w, "# TYPE flowtime_repl_epoch counter\nflowtime_repl_epoch %d\n", rp.Epoch)
			fmt.Fprintf(w, "# TYPE flowtime_repl_fenced gauge\nflowtime_repl_fenced %d\n", boolToInt(rp.Fenced))
			fmt.Fprintf(w, "# TYPE flowtime_repl_lag_records gauge\nflowtime_repl_lag_records %d\n", rp.LagRecords)
			fmt.Fprintf(w, "# TYPE flowtime_repl_lag_bytes gauge\nflowtime_repl_lag_bytes %d\n", rp.LagBytes)
		}
		if p := st.Plan; p != nil {
			fmt.Fprintf(w, "# TYPE flowtime_plan_rev counter\nflowtime_plan_rev %d\n", p.Rev)
			fmt.Fprintf(w, "# TYPE flowtime_plan_jobs gauge\nflowtime_plan_jobs %d\n", p.Jobs)
			if q := p.AdHoc; q != nil {
				fmt.Fprintf(w, "# TYPE flowtime_adhoc_admitted_total counter\nflowtime_adhoc_admitted_total %d\n", q.Admitted)
				fmt.Fprintf(w, "# TYPE flowtime_adhoc_rejected_total counter\nflowtime_adhoc_rejected_total %d\n", q.Rejected)
				fmt.Fprintf(w, "# TYPE flowtime_adhoc_gate_rev gauge\nflowtime_adhoc_gate_rev %d\n", q.Rev)
			}
		}
		if r := st.Recovery; r != nil {
			fmt.Fprintf(w, "# TYPE flowtime_rm_recovery_records_replayed gauge\nflowtime_rm_recovery_records_replayed %d\n", r.RecordsReplayed)
			fmt.Fprintf(w, "# TYPE flowtime_rm_recovery_micros gauge\nflowtime_rm_recovery_micros %d\n", r.Micros)
			fmt.Fprintf(w, "# TYPE flowtime_rm_recovery_wal_truncated gauge\nflowtime_rm_recovery_wal_truncated %d\n", boolToInt(r.WALTruncated))
			fmt.Fprintf(w, "# TYPE flowtime_rm_recovery_orphan_leases gauge\nflowtime_rm_recovery_orphan_leases %d\n", r.OrphanLeasesRequeued)
		}
		s.writeReadPath(rw, r, "text/plain; version=0.0.4", w.Bytes())
	})
	return mux
}

// parseStatusQuery reads the two cursors of GET /v1/status
// (rmproto.QueryLiveAfter). A missing number means 0: every completed
// job, every live one.
func parseStatusQuery(q url.Values) (statusCursor, error) {
	doneAfter, err := queryCount(q, rmproto.QueryDoneAfter)
	if err != nil {
		return statusCursor{}, err
	}
	liveAfter, err := queryCount(q, rmproto.QueryLiveAfter)
	if err != nil {
		return statusCursor{}, err
	}
	return statusCursor{instance: q.Get(rmproto.QueryInstance), doneAfter: doneAfter, liveAfter: int64(liveAfter)}, nil
}

// queryCount reads one non-negative integer query parameter.
func queryCount(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("rmserver: %s=%q, want a non-negative integer", name, v)
	}
	return n, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxRequestBytes bounds every request body the API decodes. The largest
// legitimate one — a full node's heartbeat, a wide workflow — is a few KB.
const maxRequestBytes = 8 << 20

// handleBinary answers a POST whose bodies are binary both ways, under
// mediaType: heartbeats and submissions. A request under another
// Content-Type is a 415 that says what the body should be (want); this and
// every other refusal is coded JSON, like every other endpoint's.
func handleBinary[Req, Resp any](mediaType, want string, decode func([]byte) (Req, error),
	call func(Req) (Resp, error), encode func([]byte, Resp) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ct := r.Header.Get("Content-Type")
		if mt, _, _ := mime.ParseMediaType(ct); mt != mediaType {
			writeError(w, http.StatusUnsupportedMediaType, fmt.Errorf("rmserver: %s; got Content-Type %q", want, ct))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			writeError(w, bodyErrorStatus(err), fmt.Errorf("decode: %w", err))
			return
		}
		req, err := decode(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
			return
		}
		resp, err := call(req)
		if err != nil {
			writeError(w, errorStatus(err), err)
			return
		}
		out, err := encode(nil, resp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", mediaType)
		h.Set("Content-Length", strconv.Itoa(len(out)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out) // a failed write is a client gone; nobody is left to tell
	}
}

// bodyErrorStatus is the status for a request body that could not be
// read or decoded: 413 past maxRequestBytes, 400 otherwise.
func bodyErrorStatus(err error) int {
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func handleJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	if resp, ok := callJSON(w, r, fn); ok {
		writeJSON(w, http.StatusOK, resp)
	}
}

// callJSON decodes the request body, which must be exactly one JSON value,
// and calls fn with it. When the body is refused or fn fails, it has
// answered the request and returns false.
func callJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) (Resp, bool) {
	var req Req
	var resp Resp
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = endOfBody(dec)
	}
	if err != nil {
		writeError(w, bodyErrorStatus(err), fmt.Errorf("decode: %w", err))
		return resp, false
	}
	resp, err = fn(req)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return resp, false
	}
	return resp, true
}

// endOfBody refuses anything but whitespace after the value dec decoded:
// a second value would otherwise be dropped unread, and the first one
// acted on.
func endOfBody(dec *json.Decoder) error {
	end := dec.InputOffset()
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return err
	}
	return fmt.Errorf("trailing data after the JSON value at byte %d", end)
}

// writeReadPath answers a read-path request — GET /v1/status, GET
// /metrics, POST /repl/v1/ship: the responses whose bodies grow with RM
// state — with its whole encoded body and a Content-Length, gzipped when
// the request's Accept-Encoding lists gzip. The control path (heartbeat,
// tick, submissions and the rest) is never gzipped: its replies are at
// most a few hundred bytes — a heartbeat's or a submission's, binary, a
// few dozen or fewer — on a round trip of ~100 µs, and deflating and
// inflating one (~20 µs) costs more than the bytes it saves.
func (s *Server) writeReadPath(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Vary", "Accept-Encoding")
	if acceptsGzip(r.Header) {
		body = s.gz.compress(body)
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is a client gone; nobody is left to tell
}

// acceptsGzip reports whether a request's Accept-Encoding lists gzip with
// a nonzero quality.
func acceptsGzip(h http.Header) bool {
	for _, v := range h.Values("Accept-Encoding") {
		for _, coding := range strings.Split(v, ",") {
			name, params, _ := strings.Cut(coding, ";")
			if !strings.EqualFold(strings.TrimSpace(name), "gzip") {
				continue
			}
			for _, param := range strings.Split(params, ";") {
				if k, q, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(k), "q") {
					f, err := strconv.ParseFloat(strings.TrimSpace(q), 64)
					return err == nil && f > 0
				}
			}
			return true
		}
	}
	return false
}

// compressor deflates read-path responses with one gzip.Writer at
// BestSpeed, made on first use and reused under its own lock. Not a
// sync.Pool: a BestSpeed writer allocates ~1.2 MB, and a pool that every
// garbage collection empties allocates it again and again — on the
// benchmark's adhoc-burst workload a pool held ftrm's peak RSS 0.8 MB
// (6 %) above one writer.
type compressor struct {
	mu sync.Mutex
	zw *gzip.Writer
}

// compress returns p gzipped, in a buffer of the caller's own.
func (c *compressor) compress(p []byte) []byte {
	var out bytes.Buffer
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.zw == nil {
		c.zw, _ = gzip.NewWriterLevel(&out, gzip.BestSpeed) // a valid level cannot fail
	} else {
		c.zw.Reset(&out)
	}
	// Writes to a bytes.Buffer cannot fail.
	_, _ = c.zw.Write(p)
	_ = c.zw.Close()
	return out.Bytes()
}

// encodeJSON is v as writeJSON would send it, newline included.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v) // the payload types here cannot fail to marshal
	return b.Bytes()
}

func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, ErrNotLeader), errors.Is(err, ErrCommitFailed):
		// 503: retryable per the client's Retryable() — the caller should
		// back off (commit_failed) or follow the leader hint (not_leader).
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by
	// the caller's middleware; the payload types here cannot fail to
	// marshal.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	e := rmproto.Error{Message: err.Error()}
	switch {
	case errors.Is(err, ErrUnknownNode):
		e.Code = rmproto.CodeUnknownNode
	case errors.Is(err, ErrNotLeader):
		e.Code = rmproto.CodeNotLeader
		e.Leader = LeaderHint(err)
	case errors.Is(err, ErrCommitFailed):
		e.Code = rmproto.CodeCommitFailed
	}
	writeJSON(w, status, e)
}
