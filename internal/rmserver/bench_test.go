package rmserver

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/sched"
)

// benchServer builds a server with njobs ad-hoc jobs, each holding one
// in-flight lease on node n1, bypassing the scheduler so the benchmark
// isolates confirmation cost.
func benchServer(b *testing.B, njobs int) (*Server, []string) {
	b.Helper()
	s, err := New(Config{SlotDur: 10 * time.Second, Scheduler: sched.NewFIFO()})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	s.nodes["n1"] = &node{id: "n1", capacity: resource.New(1<<20, 1<<30)}
	qids := make([]string, njobs)
	for i := 0; i < njobs; i++ {
		j := &rmJob{
			id:    fmt.Sprintf("adhoc/j%d", i),
			kind:  sched.AdHocJob,
			total: resource.New(1<<40, 1<<40), // never completes: keep state stable
		}
		s.jobs[j.id] = j
		qid := fmt.Sprintf("q-%d", i)
		grant := resource.New(1, 256)
		j.inFlight = grant
		s.leases[qid] = &lease{qid: qid, job: j, nodeID: "n1", grant: grant}
		qids[i] = qid
	}
	return s, qids
}

// BenchmarkCompleteQuantumIndexed measures lease confirmation as a
// heartbeat runs it — decideConfirm, then applyConfirmLocked — via the
// server-level qid index: O(1) in the number of jobs.
func BenchmarkCompleteQuantumIndexed(b *testing.B) {
	for _, njobs := range []int{100, 10000} {
		b.Run(fmt.Sprintf("jobs=%d", njobs), func(b *testing.B) {
			s, qids := benchServer(b, njobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qid := qids[i%njobs]
				s.mu.Lock()
				l := s.leases[qid] // confirm destroys the lease; re-arm below
				rec, _ := s.decideConfirm("n1", []string{qid})
				s.applyConfirmLocked(rec)
				s.leases[qid] = l
				s.mu.Unlock()
			}
		})
	}
}

// benchPending builds a node with n quanta queued for its next
// heartbeat, for the drop-pending benchmarks.
func benchPending(n int) *node {
	nd := &node{id: "n1", capacity: resource.New(1<<20, 1<<30)}
	for i := 0; i < n; i++ {
		nd.enqueue(rmproto.Quantum{ID: fmt.Sprintf("q-%d", i), Grant: rmproto.Resources{VCores: 1, MemoryMB: 256}})
	}
	return nd
}

// BenchmarkDropPendingIndexed measures reclaiming a queued quantum via
// the node's pendingPos index (O(1) tombstone).
func BenchmarkDropPendingIndexed(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			nd := benchPending(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qid := fmt.Sprintf("q-%d", i%n)
				if !nd.dropPending(qid) {
					// Re-arm: restore the tombstoned entry.
					j := i % n
					nd.pending[j] = rmproto.Quantum{ID: qid}
					nd.pendingPos[qid] = j
					nd.dropped--
					nd.dropPending(qid)
				}
				j := i % n
				nd.pending[j] = rmproto.Quantum{ID: qid}
				nd.pendingPos[qid] = j
				nd.dropped--
			}
		})
	}
}

// completedSizes are the histories the read-path benchmarks run over; the
// live table holds 20 jobs throughout, so a cost that is O(live) reads
// the same at both sizes.
var completedSizes = []struct {
	name string
	n    int
}{{"2k_completed", 2000}, {"20k_completed", 20000}}

// BenchmarkStatusIncremental is one GET /v1/status by a client that has
// seen the archive already: the steady state of every scraper.
func BenchmarkStatusIncremental(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).Handler())
			defer ts.Close()
			c := NewClient(ts.URL, ts.Client())
			ctx := context.Background()
			if _, err := c.Status(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.Status(ctx)
				if err != nil || len(st.Jobs) != size.n+20 {
					b.Fatalf("Status: %d jobs, %v", len(st.Jobs), err)
				}
			}
		})
	}
}

// BenchmarkStatusFull is the same request from a client with no cursor —
// a bare curl, or the first request after an RM restart — which receives
// the whole archive.
func BenchmarkStatusFull(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).Handler())
			defer ts.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := NewClient(ts.URL, ts.Client()).Status(ctx)
				if err != nil || len(st.Jobs) != size.n+20 {
					b.Fatalf("Status: %d jobs, %v", len(st.Jobs), err)
				}
			}
		})
	}
}

// BenchmarkTick is one scheduling slot over 20 live jobs behind a history
// of completed ones.
func BenchmarkTick(b *testing.B) {
	for _, size := range completedSizes {
		b.Run(size.name, func(b *testing.B) {
			rm := completedRM(b, sched.NewFIFO(), size.n, 20)
			now := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rm.Tick(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalEncode encodes the record sequence of a recorded mixed
// run (recordMixedRun: every record variant) the way journalLocked does —
// one codec, one reused buffer. B/record is the payload size; json_B/record
// is what the same records took in the JSON form the codec replaced.
func BenchmarkJournalEncode(b *testing.B) {
	_, payloads := recordMixedRun(b)
	var codec walCodec
	recs := make([]walRecord, len(payloads))
	var size, jsonSize int
	for i, p := range payloads {
		rec, err := codec.decode(p)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
		size += len(p)
		jsonSize += len(mustJSON(rec))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range recs {
			if _, err := codec.encode(&recs[r]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	b.ReportMetric(float64(size)/float64(len(recs)), "B/record")
	b.ReportMetric(float64(jsonSize)/float64(len(recs)), "json_B/record")
}

// BenchmarkReplayDecode decodes the same sequence the way replay does.
func BenchmarkReplayDecode(b *testing.B) {
	_, payloads := recordMixedRun(b)
	var codec walCodec
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := codec.decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payloads)), "ns/record")
	b.ReportMetric(float64(size)/float64(len(payloads)), "B/record")
}
