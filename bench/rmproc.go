package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/trace"
)

// opTimeout bounds one request; the slowest op of any workload (a cold
// replan) is well under a second.
const opTimeout = 60 * time.Second

// rmGOMAXPROCS is what the ftrm child runs with.
func rmGOMAXPROCS() int { return min(runtime.NumCPU(), 2) }

// buildRM compiles cmd/ftrm from the checkout into outDir.
func buildRM(outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "ftrm")
	cmd := exec.Command("go", "build", "-o", bin, "flowtime/cmd/ftrm")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build flowtime/cmd/ftrm: %w\n%s", err, out)
	}
	return bin, nil
}

// children are the ftrm processes currently running, so that a harness
// told to stop takes them down with it.
var children = struct {
	sync.Mutex
	live map[*rmProc]bool
}{live: map[*rmProc]bool{}}

// killChildrenOnSignal makes SIGINT and SIGTERM kill every running ftrm
// and wait for it before the harness exits.
func killChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.Lock() // held for good: no new child may start now
		for p := range children.live {
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		os.Exit(1)
	}()
}

// rmProc is one ftrm child process.
type rmProc struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string
	exited chan struct{} // closed once the process has been waited for
}

// startRM execs ftrm on stateDir and returns as soon as the process is
// started; waitReady completes the start.
func startRM(bin, stateDir, addr, logPath string) (*rmProc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-manual-tick",
		"-slot", slotDur.String(),
		"-sched", "FlowTime",
		"-state-dir", stateDir,
		"-fsync", "always",
		"-adhoc-gate",
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(rmGOMAXPROCS()))
	cmd.Stdout = logf
	cmd.Stderr = logf
	p := &rmProc{cmd: cmd, log: logf, base: "http://" + addr, exited: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ftrm: %w", err)
	}
	children.live[p] = true
	go func() {
		_ = cmd.Wait() // the exit status of a killed process is not news
		close(p.exited)
	}()
	return p, nil
}

// kill SIGKILLs the process and waits until it has ended.
func (p *rmProc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.exited
	children.Lock()
	delete(children.live, p)
	children.Unlock()
	p.log.Close()
}

// cpu returns the process's user+system CPU time so far.
func (p *rmProc) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 10 ms.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the process's resident-set high-water mark.
func (p *rmProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freeAddr picks a loopback address nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// countingTransport is the driver's own RoundTripper: one keep-alive
// connection, with request and response body bytes counted.
type countingTransport struct {
	rt                  http.RoundTripper
	reqBytes, respBytes *atomic.Int64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: c.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// httpTarget plays ops against a running ftrm over one connection.
type httpTarget struct {
	c    *rmserver.Client
	hc   *http.Client
	base string
}

func newHTTPTarget(base string, reqBytes, respBytes *atomic.Int64) *httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{
		Transport: countingTransport{rt: tr, reqBytes: reqBytes, respBytes: respBytes},
		Timeout:   opTimeout,
	}
	return &httpTarget{c: rmserver.NewClient(base, hc), hc: hc, base: base}
}

func (t *httpTarget) close() { t.hc.CloseIdleConnections() }

func (t *httpTarget) Register(n nodeSpec) error {
	_, err := t.c.RegisterNode(context.Background(), rmproto.RegisterNodeRequest{
		NodeID:   n.id,
		Capacity: rmproto.Resources{VCores: n.vcores, MemoryMB: n.memoryMB},
	})
	return err
}

func (t *httpTarget) SubmitWorkflow(rec trace.WorkflowRecord) (rmproto.SubmitResponse, error) {
	return t.c.SubmitWorkflow(context.Background(), rmproto.SubmitWorkflowRequest{Workflow: rec})
}

func (t *httpTarget) SubmitAdHoc(rec trace.AdHocRecord) (rmproto.SubmitResponse, error) {
	return t.c.SubmitAdHoc(context.Background(), rmproto.SubmitAdHocRequest{Job: rec})
}

func (t *httpTarget) Tick() error { return t.c.Tick(context.Background()) }

func (t *httpTarget) Heartbeat(req rmproto.HeartbeatRequest) (rmproto.HeartbeatResponse, error) {
	return t.c.Heartbeat(context.Background(), req)
}

func (t *httpTarget) Status() (rmproto.StatusResponse, error) {
	return t.c.Status(context.Background())
}

// durableStatus is Status for the harness's own bookkeeping; the
// durability block is always there when ftrm runs with a state dir.
func (t *httpTarget) durableStatus() (rmproto.StatusResponse, error) {
	st, err := t.Status()
	if err == nil && st.Durability == nil {
		err = errors.New("status carries no durability block")
	}
	return st, err
}

func (t *httpTarget) Metrics() error {
	resp, err := t.hc.Get(t.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return nil
}

// waitReady polls /v1/status until the RM answers. Polling every
// millisecond is the only waiting in the harness, and it is outside the
// slot loop.
func (t *httpTarget) waitReady(proc *rmProc) (rmproto.StatusResponse, error) {
	deadline := time.Now().Add(opTimeout)
	for {
		st, err := t.Status()
		if err == nil {
			return st, nil
		}
		select {
		case <-proc.exited:
			return st, fmt.Errorf("ftrm at %s exited during start (see its log): %w", t.base, err)
		default:
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("ftrm at %s not ready: %w", t.base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
