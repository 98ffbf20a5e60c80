package rmstate

import (
	"fmt"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// benchState builds a state with njobs ad-hoc jobs, each holding one
// in-flight lease on node n1, bypassing the scheduler so the benchmark
// isolates confirmation cost.
func benchState(njobs int) (*State, []string) {
	s := New(10*time.Second, 16)
	qids := make([]string, njobs)
	for i := 0; i < njobs; i++ {
		j := &Job{
			ID:    fmt.Sprintf("adhoc/j%d", i),
			Kind:  sched.AdHocJob,
			Total: resource.New(1<<40, 1<<40), // never completes: keep state stable
		}
		s.jobs[j.ID] = j
		qid := fmt.Sprintf("q-%d", i)
		grant := resource.New(1, 256)
		j.InFlight = grant
		s.leases[qid] = &Lease{QID: qid, Job: j, NodeID: "n1", Grant: grant}
		qids[i] = qid
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
				qid := qids[i%njobs]
				l := s.leases[qid] // confirm destroys the lease; re-arm below
				rec, _ := s.DecideConfirm("n1", []string{qid})
				if err := s.Apply(&Record{Confirm: rec}); err != nil {
					b.Fatal(err)
				}
				s.leases[qid] = l
			}
		})
	}
}
