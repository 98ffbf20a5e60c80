package netchaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// virtualClock pins the injector's timeline for deterministic tests.
type virtualClock struct{ now atomic.Int64 }

func (c *virtualClock) set(d time.Duration) { c.now.Store(int64(d)) }
func (c *virtualClock) read() time.Duration { return time.Duration(c.now.Load()) }

// TestDeterministicDecisions is the reproducibility contract: the same
// seed, script, and clock sequence produce the same fault sequence, and
// concurrent traffic on one link cannot perturb another link's stream.
func TestDeterministicDecisions(t *testing.T) {
	script := Script{
		{Fault: Drop, From: "a", To: "b", P: 0.5},
		{Fault: Reset, From: "b", To: "a", P: 0.3},
		{Fault: Latency, From: "a", To: "b", Latency: time.Millisecond, Jitter: 10 * time.Millisecond},
	}
	run := func(seed int64, perturb bool) []Decision {
		inj := New(seed, script)
		clk := &virtualClock{}
		inj.SetClock(clk.read)
		var out []Decision
		for i := 0; i < 200; i++ {
			clk.set(time.Duration(i) * time.Millisecond)
			if perturb {
				// Traffic on an unrelated link must not shift a->b's stream.
				inj.Decide("x", "y")
			}
			out = append(out, inj.Decide("a", "b"))
			out = append(out, inj.Decide("b", "a"))
		}
		return out
	}
	base := run(42, false)
	again := run(42, false)
	perturbed := run(42, true)
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("decision %d differs across identical runs: %+v vs %+v", i, base[i], again[i])
		}
		if base[i] != perturbed[i] {
			t.Fatalf("decision %d perturbed by unrelated-link traffic: %+v vs %+v", i, base[i], perturbed[i])
		}
	}
	other := run(7, false)
	same := true
	for i := range base {
		if base[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 7 produced identical decision sequences")
	}
}

func TestRuleWindowsAndFlap(t *testing.T) {
	inj := New(1, Script{
		{Fault: Partition, From: "a", To: "b", Start: time.Second, End: 3 * time.Second},
		{Fault: Partition, From: "a", To: "b", Start: 4 * time.Second, Period: time.Second, Duty: 0.5}, // a flap
	})
	clk := &virtualClock{}
	inj.SetClock(clk.read)

	cases := []struct {
		at   time.Duration
		drop bool
	}{
		{500 * time.Millisecond, false},  // before the window
		{1500 * time.Millisecond, true},  // inside the partition
		{3 * time.Second, false},         // window closed (end-exclusive)
		{4100 * time.Millisecond, true},  // flap on-phase
		{4700 * time.Millisecond, false}, // flap off-phase
		{5200 * time.Millisecond, true},  // next period, on again
	}
	for _, c := range cases {
		clk.set(c.at)
		if got := inj.Decide("a", "b").Drop; got != c.drop {
			t.Errorf("at %v: drop=%v, want %v", c.at, got, c.drop)
		}
	}
	// The reverse direction is untouched by one-way rules.
	clk.set(1500 * time.Millisecond)
	if inj.Decide("b", "a").Drop {
		t.Error("one-way partition a->b dropped b->a traffic")
	}
}

// TestTransportFaults drives the RoundTripper wrapper against a real
// HTTP server: drops never reach it, resets reach it but fail the
// caller, response-direction partitions deliver the mutation and lose
// only the acknowledgement, and duplicates hit the server twice.
func TestTransportFaults(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	do := func(rule Rule, atT time.Duration) (int64, error) {
		inj := New(99, Script{rule})
		clk := &virtualClock{}
		inj.SetClock(clk.read)
		clk.set(atT)
		hc := &http.Client{Transport: &Transport{Injector: inj, From: "c", To: "s"}}
		before := hits.Load()
		resp, err := hc.Post(srv.URL, "text/plain", strings.NewReader("x"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		return hits.Load() - before, err
	}

	if n, err := do(Rule{Fault: Partition, From: "c", To: "s"}, 0); err == nil || n != 0 {
		t.Errorf("request-direction partition: hits=%d err=%v, want 0 hits and an error", n, err)
	}
	if n, err := do(Rule{Fault: Reset, From: "c", To: "s", P: 1}, 0); err == nil || n != 1 {
		t.Errorf("reset: hits=%d err=%v, want 1 hit and an error (delivered, ack lost)", n, err)
	}
	if n, err := do(Rule{Fault: Partition, From: "s", To: "c"}, 0); err == nil || n != 1 {
		t.Errorf("response-direction partition: hits=%d err=%v, want 1 hit and an error", n, err)
	}
	if n, err := do(Rule{Fault: Duplicate, From: "c", To: "s", P: 1}, 0); err != nil || n != 2 {
		t.Errorf("dup: hits=%d err=%v, want 2 hits and success", n, err)
	}
	if n, err := do(Rule{Fault: Partition, From: "c", To: "s", End: time.Second}, 2*time.Second); err != nil || n != 1 {
		t.Errorf("expired partition: hits=%d err=%v, want clean delivery", n, err)
	}
}

// chaosServer starts an HTTP server whose listener is wrapped with inj,
// c the client label and s the server's.
func chaosServer(t *testing.T, inj *Injector, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Listener = WrapListener(srv.Listener, inj, "c", "s")
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// TestWrapListenerRelaysIntactUnderThrottle asserts the byte-stream
// contract: a throttled, latency-injected listener still delivers the
// HTTP response — status, headers, body — unaltered.
func TestWrapListenerRelaysIntactUnderThrottle(t *testing.T) {
	sc := Script{
		{Fault: Throttle, From: "c", To: "s", Bidir: true, BytesPerSec: 65536},
		{Fault: Latency, From: "c", To: "s", Latency: time.Millisecond},
	}
	srv := chaosServer(t, New(5, sc), func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"code":"overloaded"}`))
	})

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET through the wrapped listener: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After %q did not survive the wrapped listener, want \"7\"", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"code":"overloaded"}` {
		t.Errorf("body %q altered in transit", body)
	}
}

// TestWrapListenerPartitionSeversConnections proves partitions kill both
// new and established connections, and that healing restores service.
func TestWrapListenerPartitionSeversConnections(t *testing.T) {
	inj := New(3, Script{{Fault: Partition, From: "c", To: "s", Bidir: true, Start: time.Second, End: time.Hour}})
	clk := &virtualClock{}
	inj.SetClock(clk.read)
	srv := chaosServer(t, inj, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})

	// Before the partition: the request succeeds and leaves a kept-alive
	// connection behind, which the next request reuses.
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("request before the partition: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	clk.set(1500 * time.Millisecond)
	if resp, err := hc.Get(srv.URL); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded through an active partition")
	}
	// Heal the link: the same listener serves cleanly again.
	clk.set(2 * time.Hour)
	resp, err = hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("request after heal: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d after heal, want 200", resp.StatusCode)
	}
}
