package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchScheduling builds a scheduling-shaped LP: jobs with interval
// windows and per-slot caps, min-theta objective.
func benchScheduling(b testing.TB, jobs, slots int) (*Model, []LoadGroup) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(jobs*1000 + slots)))
	m := NewModel()
	groupTerms := make([][]Term, slots)
	for i := 0; i < jobs; i++ {
		rel := rng.Intn(slots - 1)
		win := 1 + rng.Intn(slots-rel-1) + 1
		if rel+win > slots {
			win = slots - rel
		}
		cap := float64(1 + rng.Intn(16))
		demand := float64(1+rng.Intn(win)) * cap / 2
		terms := make([]Term, 0, win)
		for s := rel; s < rel+win; s++ {
			v, err := m.NewVar("", 0, cap)
			if err != nil {
				b.Fatal(err)
			}
			terms = append(terms, Term{v, 1})
			groupTerms[s] = append(groupTerms[s], Term{v, 1})
		}
		if err := m.AddConstraint(terms, EQ, demand); err != nil {
			b.Fatal(err)
		}
	}
	groups := make([]LoadGroup, 0, slots)
	for s := 0; s < slots; s++ {
		if len(groupTerms[s]) == 0 {
			continue
		}
		groups = append(groups, LoadGroup{Terms: groupTerms[s], Cap: 500})
	}
	return m, groups
}

// BenchmarkSolveMinTheta measures one min-theta LP solve at several
// scheduling sizes — the unit operation behind the paper's Fig. 7.
func BenchmarkSolveMinTheta(b *testing.B) {
	for _, size := range []struct{ jobs, slots int }{
		{10, 50}, {50, 100}, {100, 100},
	} {
		b.Run(fmt.Sprintf("jobs=%d_slots=%d", size.jobs, size.slots), func(b *testing.B) {
			base, groups := benchScheduling(b, size.jobs, size.slots)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := base.Clone()
				theta, err := m.NewVar("theta", 0, Inf)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.SetObjective([]Term{{theta, 1}}); err != nil {
					b.Fatal(err)
				}
				for _, g := range groups {
					terms := append(append([]Term{}, g.Terms...), Term{theta, -g.Cap})
					if err := m.AddConstraint(terms, LE, 0); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := m.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLexMinMax measures the full lexicographic driver at the
// paper's Fig. 7 event-handling sizes, rounds capped at 6 as the probe
// in cmd/ftperf caps them.
func BenchmarkLexMinMax(b *testing.B) {
	for _, size := range []struct{ jobs, slots int }{
		{10, 50}, {50, 100}, {100, 100},
	} {
		b.Run(fmt.Sprintf("jobs=%d_slots=%d", size.jobs, size.slots), func(b *testing.B) {
			base, groups := benchScheduling(b, size.jobs, size.slots)
			var pivots int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := LexMinMax(base, groups, 6)
				if err != nil {
					b.Fatal(err)
				}
				pivots += res.Stats.Pivots
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}
