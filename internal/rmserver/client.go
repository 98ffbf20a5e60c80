package rmserver

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"flowtime/internal/rmproto"
)

// Client is an HTTP client for the resource manager's API, used by the
// node-manager agent (cmd/ftnode), the submission tool (cmd/ftsubmit) and
// the integration tests.
type Client struct {
	base   string
	hc     *http.Client
	policy *RetryPolicy // nil = one attempt per call
	// status is what Status has already received of the RM's job table.
	// Copies made for the same base share it; WithBase starts an empty one.
	status *statusCache
}

// statusCache is what Status calls have received of one RM instance's
// job table, kept so that a job's entry crosses the wire only when it
// changed: the prefix of the completed-job archive fetched so far
// (rmproto.DoneJobs), and a mirror of the live jobs as of one response
// — the one whose archive had liveDone entries and whose live entries
// were current to change number change (rmproto.QueryLiveAfter).
type statusCache struct {
	mu       sync.Mutex
	instance string
	done     []rmproto.JobStatus          // archive[:len(done)]; elements never rewritten
	live     map[string]rmproto.JobStatus // by ID; nil when there is nothing to continue
	liveDone int
	change   int64
}

// NewClient returns a client for the RM at base (e.g.
// "http://localhost:8030"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient, status: &statusCache{}}
}

// WithPolicy returns a copy of the client whose idempotent calls
// (RegisterNode, Heartbeat, Status) are retried under p on transient
// failures — connection errors and 5xx responses — with Retry-After
// honored. Permanent rejections (4xx, including unknown-node) surface
// immediately; non-idempotent calls (Tick, submissions) are never retried.
// The budget inside p is shared by reference, so copies made with WithBase
// keep feeding the same bucket (an agent rotating RMs keeps one budget).
func (c *Client) WithPolicy(p RetryPolicy) *Client {
	cc := *c
	cc.policy = &p
	return &cc
}

// bare returns a copy of the client that performs exactly one attempt
// per call. Loops that do their own pacing
// (registerUntilAccepted) use it to avoid nested-retry amplification:
// an outer loop wrapping a 4-attempt client multiplies offered load by
// 4 exactly when the RM is least able to take it.
func (c *Client) bare() *Client {
	cc := *c
	cc.policy = nil
	return &cc
}

// WithBase returns a copy of the client pointed at a different RM URL,
// keeping the HTTP client and retry policy. Agents use it to follow a
// leader hint or rotate through their RM list.
func (c *Client) WithBase(base string) *Client {
	cc := *c
	cc.base = base
	cc.status = &statusCache{}
	return &cc
}

// Base returns the RM URL this client talks to.
func (c *Client) Base() string { return c.base }

func (c *Client) retrying(ctx context.Context, op func() error) error {
	if c.policy == nil {
		return op()
	}
	return c.policy.Do(ctx, op)
}

// RegisterNode announces a node manager.
func (c *Client) RegisterNode(ctx context.Context, req rmproto.RegisterNodeRequest) (rmproto.RegisterNodeResponse, error) {
	var resp rmproto.RegisterNodeResponse
	err := c.retrying(ctx, func() error {
		return c.post(ctx, rmproto.PathRegister, req, &resp)
	})
	return resp, err
}

// Heartbeat reports completions and fetches work. Heartbeats are
// idempotent at the system level: if a retry re-reports a completion the
// RM already confirmed, the duplicate is counted as stale and ignored.
// Both bodies are binary (rmproto.AppendHeartbeatRequest).
func (c *Client) Heartbeat(ctx context.Context, req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
	var resp rmproto.HeartbeatResponse
	body := rmproto.AppendHeartbeatRequest(nil, req)
	err := c.retrying(ctx, func() error {
		return c.send(ctx, rmproto.PathHeartbeat, rmproto.HeartbeatMediaType, body, decodeBinary(&resp, rmproto.DecodeHeartbeatResponse))
	})
	return resp, err
}

// SubmitWorkflow submits a deadline workflow. Both bodies are binary
// (rmproto.AppendSubmitWorkflowRequest); a workflow with a negative field
// is refused here, unsent.
func (c *Client) SubmitWorkflow(ctx context.Context, req rmproto.SubmitWorkflowRequest) (rmproto.SubmitResponse, error) {
	body, err := rmproto.AppendSubmitWorkflowRequest(nil, req)
	if err != nil {
		return rmproto.SubmitResponse{}, fmt.Errorf("rmserver: client: %w", err)
	}
	return c.submit(ctx, rmproto.PathWorkflows, body, req.Workflow.ID)
}

// SubmitAdHoc submits an ad-hoc job, as SubmitWorkflow a workflow.
func (c *Client) SubmitAdHoc(ctx context.Context, req rmproto.SubmitAdHocRequest) (rmproto.SubmitResponse, error) {
	body, err := rmproto.AppendSubmitAdHocRequest(nil, req)
	if err != nil {
		return rmproto.SubmitResponse{}, fmt.Errorf("rmserver: client: %w", err)
	}
	return c.submit(ctx, rmproto.PathAdHoc, body, rmproto.AdHocJobID(req.Job.ID))
}

// submit posts one submission body and names the reply id, which the RM
// does not send back.
func (c *Client) submit(ctx context.Context, path string, body []byte, id string) (rmproto.SubmitResponse, error) {
	var resp rmproto.SubmitResponse
	if err := c.send(ctx, path, rmproto.SubmitMediaType, body, decodeBinary(&resp, rmproto.DecodeSubmitResponse)); err != nil {
		return rmproto.SubmitResponse{}, err
	}
	resp.ID = id
	return resp, nil
}

// Tick advances the RM one slot (manual-tick deployments and tests).
func (c *Client) Tick(ctx context.Context) error {
	return c.post(ctx, rmproto.PathTick, struct{}{}, &struct {
		Slot int64 `json:"slot"`
	}{})
}

// Drain asks the RM to stop issuing new leases. With req.WaitMs > 0 the
// RM blocks up to that long for outstanding leases to confirm or expire.
func (c *Client) Drain(ctx context.Context, req rmproto.DrainRequest) (rmproto.DrainResponse, error) {
	var resp rmproto.DrainResponse
	err := c.post(ctx, rmproto.PathDrain, req, &resp)
	return resp, err
}

// Status fetches the cluster snapshot: every job the RM knows, sorted by
// ID, in a Jobs slice of the caller's own. What this client (or a copy of
// it for the same base) has received before is asked for by cursor only
// — a completed job once, a live one when its entry changed — and folded
// back in from the client's cache; an RM that restarted, or another RM
// behind the same URL, announces a different instance and is fetched
// whole. A response that does not continue the cache's live jobs is not
// applied, and the call asks again for every live job.
func (c *Client) Status(ctx context.Context) (rmproto.StatusResponse, error) {
	var resp rmproto.StatusResponse
	err := c.retrying(ctx, func() error {
		var err error
		if resp, err = c.statusOnce(ctx, false); errors.Is(err, errNotContinued) {
			resp, err = c.statusOnce(ctx, true)
		}
		return err
	})
	return resp, err
}

// statusOnce is one GET /v1/status from the cache's cursors — with
// wholeLive, from live change 0 — folded through the cache. Only a whole,
// decoded 200 moves the cursors, so a retried attempt asks again from
// where the last success left off.
func (c *Client) statusOnce(ctx context.Context, wholeLive bool) (rmproto.StatusResponse, error) {
	var resp rmproto.StatusResponse
	ask := c.status.cursor(wholeLive)
	q := url.Values{
		rmproto.QueryDoneAfter: {strconv.Itoa(ask.doneAfter)},
		rmproto.QueryInstance:  {ask.instance},
		rmproto.QueryLiveAfter: {strconv.FormatInt(ask.liveAfter, 10)},
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+rmproto.PathStatus+"?"+q.Encode(), nil)
	if err != nil {
		return resp, fmt.Errorf("rmserver: client: %w", err)
	}
	if err := c.do(req, decodeJSON(&resp)); err != nil || resp.Done == nil {
		return resp, err // no done block: an RM that sends the whole table in Jobs
	}
	return resp, c.status.apply(ask, &resp)
}

// errNotContinued is a status response whose live jobs are changes to a
// mirror the cache no longer holds — a concurrent call moved it — or do
// not add up to the response's own Summary.
var errNotContinued = errors.New("rmserver: client: status response does not continue the live jobs already received")

// cursor is the query that continues the cache; with wholeLive it asks
// for every live job.
func (d *statusCache) cursor(wholeLive bool) statusCursor {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := statusCursor{instance: d.instance, doneAfter: len(d.done)}
	if !wholeLive && d.live != nil {
		cur.liveAfter = d.change
	}
	return cur
}

// apply folds one response, asked for with cursor ask, into the cache
// and turns it into the whole table (StatusResponse.Fold). The server
// sent every live job when it could not honour ask (another instance,
// change 0, a number past its own), and the cache adopts that list unless
// it already holds a later one. Otherwise it sent the live jobs changed
// since ask, which continue the mirror only if it is still the one ask
// was taken from: the jobs the archive completed since are dropped from
// it, the changed ones upserted, and it must then hold exactly the
// Pending + Running jobs the response counts.
func (d *statusCache) apply(ask statusCursor, resp *rmproto.StatusResponse) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	archive, ok := d.extendLocked(resp.Done)
	if !ok {
		return errors.New("rmserver: client: status response does not continue the completed jobs already received")
	}
	total, live := resp.Done.Total, resp.Summary.Pending+resp.Summary.Running
	if ask.instance != resp.Done.Instance || ask.liveAfter == 0 || ask.liveAfter > resp.LiveChange {
		if len(resp.Jobs) != live {
			return fmt.Errorf("rmserver: client: status lists %d live jobs and counts %d", len(resp.Jobs), live)
		}
		if d.live == nil || total >= d.liveDone && resp.LiveChange >= d.change {
			d.live = make(map[string]rmproto.JobStatus, len(resp.Jobs))
			for _, j := range resp.Jobs {
				d.live[j.ID] = j
			}
			d.liveDone, d.change = total, resp.LiveChange
		}
	} else {
		if d.live == nil || d.change != ask.liveAfter || d.liveDone > total {
			return errNotContinued
		}
		for _, j := range archive[d.liveDone:] {
			delete(d.live, j.ID)
		}
		for _, j := range resp.Jobs {
			d.live[j.ID] = j
		}
		d.liveDone, d.change = total, resp.LiveChange
		if len(d.live) != live {
			d.live = nil
			return errNotContinued
		}
		resp.Jobs = make([]rmproto.JobStatus, 0, len(d.live))
		for _, j := range d.live {
			resp.Jobs = append(resp.Jobs, j)
		}
	}
	resp.Fold(archive)
	return nil
}

// extendLocked folds one response's done block into the archive prefix
// and returns the part the response describes, archive[:got.Total]. A
// block from index 0 of another instance replaces the whole cache.
// Status calls running concurrently may deliver blocks out of order: one
// that ends inside the prefix adds nothing, and one that does not connect
// to it — possible only when the calls straddle an instance change — is
// refused.
func (d *statusCache) extendLocked(got *rmproto.DoneJobs) ([]rmproto.JobStatus, bool) {
	if got.Total != got.From+len(got.Jobs) {
		return nil, false
	}
	if got.Instance != d.instance {
		if got.From != 0 {
			return nil, false
		}
		d.instance, d.done, d.live = got.Instance, nil, nil
	}
	have := len(d.done)
	if got.From > have {
		return nil, false
	}
	if got.Total > have {
		d.done = append(d.done, got.Jobs[have-got.From:]...)
	}
	return d.done[:got.Total:got.Total], true
}

// Ship requests one replication batch from a primary (follower pull
// loop; see RunReplicator). Not retried — the loop is its own retry.
func (c *Client) Ship(ctx context.Context, req rmproto.ShipRequest) (rmproto.ShipResponse, error) {
	var resp rmproto.ShipResponse
	err := c.post(ctx, rmproto.PathShip, req, &resp)
	return resp, err
}

// Promote asks a follower to take over as primary.
func (c *Client) Promote(ctx context.Context) (rmproto.PromoteResponse, error) {
	var resp rmproto.PromoteResponse
	err := c.post(ctx, rmproto.PathPromote, rmproto.PromoteRequest{}, &resp)
	return resp, err
}

// Fence tells an RM that a higher leadership epoch exists, deposing it
// if it still believes it is the primary.
func (c *Client) Fence(ctx context.Context, req rmproto.FenceRequest) (rmproto.FenceResponse, error) {
	var resp rmproto.FenceResponse
	err := c.post(ctx, rmproto.PathFence, req, &resp)
	return resp, err
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("rmserver: client: marshal: %w", err)
	}
	return c.send(ctx, path, "application/json", buf, decodeJSON(out))
}

// send POSTs body as contentType and hands a 200's body to decode.
func (c *Client) send(ctx context.Context, path, contentType string, body []byte, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rmserver: client: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	return c.do(req, decode)
}

// decodeJSON decodes one JSON value into out.
func decodeJSON(out any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// decodeBinary decodes a whole binary body into out.
func decodeBinary[T any](out *T, decode func([]byte) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error {
		p, err := io.ReadAll(r)
		if err == nil {
			*out, err = decode(p)
		}
		return err
	}
}

// do sends req and hands a 200's body to decode, or turns any other
// answer into a *StatusError. It asks for gzip itself — the transport then
// leaves the body as sent, and do inflates it — so what a RoundTripper
// counts is what crossed the wire; the RM compresses only its read path.
func (c *Client) do(req *http.Request, decode func(io.Reader) error) error {
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("rmserver: client: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	body := io.Reader(resp.Body)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return fmt.Errorf("rmserver: client: inflate: %w", err)
		}
		body = zr
	}
	if resp.StatusCode != http.StatusOK {
		var e rmproto.Error
		_ = json.NewDecoder(body).Decode(&e)
		se := &StatusError{StatusCode: resp.StatusCode, Code: e.Code, Message: e.Message, Leader: e.Leader}
		// The Retry-After header (whole seconds, per RFC 9110) and the
		// body's retry_after_ms carry the same hint at different
		// resolutions; prefer the finer-grained body when present.
		if e.RetryAfterMs > 0 {
			se.RetryAfter = time.Duration(e.RetryAfterMs) * time.Millisecond
		} else if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return se
	}
	if err := decode(body); err != nil {
		return fmt.Errorf("rmserver: client: decode: %w", err)
	}
	return nil
}
