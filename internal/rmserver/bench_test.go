package rmserver

import (
	"context"
	"net/http/httptest"
	"testing"

	"flowtime/internal/rmstate"
	"flowtime/internal/sched"
)

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
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).rm.Handler())
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
			ts := httptest.NewServer(completedRM(b, sched.NewFIFO(), size.n, 20).rm.Handler())
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
			c := completedRM(b, sched.NewFIFO(), size.n, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.rm.Tick(c.now); err != nil {
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
	var codec rmstate.Codec
	recs := make([]rmstate.Record, len(payloads))
	var size, jsonSize int
	for i, p := range payloads {
		rec, err := codec.Decode(p)
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
			if _, err := codec.Encode(&recs[r]); err != nil {
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
	var codec rmstate.Codec
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := codec.Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payloads)), "ns/record")
	b.ReportMetric(float64(size)/float64(len(payloads)), "B/record")
}
