package rmstate

import (
	"fmt"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/rmproto"
	"flowtime/internal/trace"
)

// benchState builds a state with njobs ad-hoc jobs, each holding one
// in-flight lease on node n1, bypassing the scheduler so the benchmark
// isolates confirmation cost. Each job is admitted by its record and the
// leases are granted by one tick record, both through Apply. It returns
// the state and the leases' IDs as a node sends them.
func benchState(njobs int) (*State, []string) {
	s := New(10*time.Second, 16)
	tick := &RecTick{Grants: make([]RecGrant, njobs)}
	qids := make([]string, njobs)
	for i := range njobs {
		// Never completes, so the state stays stable.
		rec, err := s.AdmitAdHoc(trace.AdHocRecord{ID: fmt.Sprintf("j%d", i), Tasks: 1 << 20, TaskDurSec: 1 << 20, DemandVCores: 1, DemandMemMB: 256})
		if err == nil {
			err = s.Apply(&Record{AdHoc: rec})
		}
		if err != nil {
			panic(err)
		}
		qids[i] = fmt.Sprintf("q-%d", i+1)
		tick.Grants[i] = RecGrant{QID: rmproto.QuantumNum(i + 1), JobID: rmproto.AdHocJobID(rec.Job.ID), NodeID: "n1", Grant: resource.New(1, 256)}
	}
	if err := s.Apply(&Record{Tick: tick}); err != nil {
		panic(err)
	}
	return s, qids
}

// BenchmarkCompleteQuantumIndexed measures lease confirmation as a
// heartbeat runs it — DecideConfirm, then Apply — via the qid index: O(1)
// in the number of jobs.
func BenchmarkCompleteQuantumIndexed(b *testing.B) {
	for _, njobs := range []int{100, 10000} {
		b.Run(fmt.Sprintf("jobs=%d", njobs), func(b *testing.B) {
			s, qids := benchState(njobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qid := rmproto.QuantumNum(i%njobs + 1)
				l := s.leases[qid] // confirm destroys the lease; re-arm below
				rec, _ := s.DecideConfirm("n1", []string{qids[i%njobs]})
				if err := s.Apply(&Record{Confirm: rec}); err != nil {
					b.Fatal(err)
				}
				s.leases[qid] = l
			}
		})
	}
}
