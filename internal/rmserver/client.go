package rmserver

import (
	"bytes"
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
	// done is what Status has already received of the RM's archive of
	// completed jobs. Copies made for the same base share it; WithBase
	// starts an empty one.
	done *doneCache
}

// doneCache is the prefix of one RM instance's completed-job archive
// (rmproto.DoneJobs) that Status calls have fetched so far, kept so that
// a completed job crosses the wire once.
type doneCache struct {
	mu       sync.Mutex
	instance string
	jobs     []rmproto.JobStatus // archive[:len(jobs)]; elements never rewritten
}

// NewClient returns a client for the RM at base (e.g.
// "http://localhost:8030"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient, done: &doneCache{}}
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
	cc.done = &doneCache{}
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
func (c *Client) Heartbeat(ctx context.Context, req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
	var resp rmproto.HeartbeatResponse
	err := c.retrying(ctx, func() error {
		return c.post(ctx, rmproto.PathHeartbeat, req, &resp)
	})
	return resp, err
}

// SubmitWorkflow submits a deadline workflow.
func (c *Client) SubmitWorkflow(ctx context.Context, req rmproto.SubmitWorkflowRequest) (rmproto.SubmitResponse, error) {
	var resp rmproto.SubmitResponse
	err := c.post(ctx, rmproto.PathWorkflows, req, &resp)
	return resp, err
}

// SubmitAdHoc submits an ad-hoc job.
func (c *Client) SubmitAdHoc(ctx context.Context, req rmproto.SubmitAdHocRequest) (rmproto.SubmitResponse, error) {
	var resp rmproto.SubmitResponse
	err := c.post(ctx, rmproto.PathAdHoc, req, &resp)
	return resp, err
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
// ID, in a Jobs slice of the caller's own. Completed jobs this client
// (or a copy of it for the same base) has fetched before are asked for
// by cursor only and folded back in from the client's cache; an RM that
// restarted, or another RM behind the same URL, announces a different
// instance and is fetched whole.
func (c *Client) Status(ctx context.Context) (rmproto.StatusResponse, error) {
	var resp rmproto.StatusResponse
	err := c.retrying(ctx, func() error {
		instance, have := c.done.cursor()
		q := url.Values{
			rmproto.QueryDoneAfter: {strconv.Itoa(have)},
			rmproto.QueryInstance:  {instance},
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+rmproto.PathStatus+"?"+q.Encode(), nil)
		if err != nil {
			return fmt.Errorf("rmserver: client: %w", err)
		}
		resp = rmproto.StatusResponse{} // a failed attempt may have decoded half of one
		if err := c.do(req, &resp); err != nil {
			return err
		}
		if resp.Done == nil {
			return nil // an RM that sends the whole table in Jobs
		}
		// Only a whole, decoded 200 moves the cursor, so a retried attempt
		// asks again from where the last success left off.
		archive, ok := c.done.extend(resp.Done)
		if !ok {
			return errors.New("rmserver: client: status response does not continue the completed jobs already received")
		}
		resp.Fold(archive)
		return nil
	})
	return resp, err
}

// cursor returns the archive instance the cache belongs to and how many
// of its entries the cache holds.
func (d *doneCache) cursor() (instance string, have int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.instance, len(d.jobs)
}

// extend folds one response's done block into the cache and returns the
// archive prefix the response describes, archive[:got.Total]. A block
// from index 0 of another instance replaces the cache. Status calls
// running concurrently may deliver blocks out of order: one that ends
// inside the cache adds nothing, and one that does not connect to it —
// possible only when the calls straddle an instance change — is refused.
func (d *doneCache) extend(got *rmproto.DoneJobs) ([]rmproto.JobStatus, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if got.Total != got.From+len(got.Jobs) {
		return nil, false
	}
	if got.Instance != d.instance {
		if got.From != 0 {
			return nil, false
		}
		d.instance, d.jobs = got.Instance, nil
	}
	have := len(d.jobs)
	if got.From > have {
		return nil, false
	}
	if got.Total > have {
		d.jobs = append(d.jobs, got.Jobs[have-got.From:]...)
	}
	return d.jobs[:got.Total:got.Total], true
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("rmserver: client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("rmserver: client: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e rmproto.Error
		_ = json.NewDecoder(resp.Body).Decode(&e)
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
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("rmserver: client: decode: %w", err)
	}
	return nil
}
