package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flowtime/internal/resource"
	"flowtime/internal/sched"
)

// TestPlanPropertiesRandom fuzzes replan with random feasible-ish job
// mixes and checks the plan invariants the paper's formulation promises:
// demand conservation within windows (Eq. 2), per-slot capacity (Eq. 4),
// per-slot parallelism bounds (Eq. 5 with bounds), and integrality
// (Lemma 2).
func TestPlanPropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	capacity := resource.New(32, 32*1024)
	cl := sched.ClusterView{
		SlotDur: slotDur,
		Horizon: 400,
		CapAt:   func(int64) resource.Vector { return capacity },
	}
	for trial := 0; trial < 30; trial++ {
		now := rng.Int63n(20)
		nJobs := 1 + rng.Intn(8)
		jobs := make([]sched.JobState, 0, nJobs)
		for i := 0; i < nJobs; i++ {
			rel := now + rng.Int63n(30)
			win := 2 + rng.Int63n(40)
			tasks := int64(1 + rng.Intn(12))
			perSlot := resource.New(tasks, tasks*512)
			durSlots := 1 + rng.Int63n(win)
			jobs = append(jobs, sched.JobState{
				ID:           fmt.Sprintf("j%02d", i),
				Kind:         sched.DeadlineJob,
				Release:      time.Duration(rel) * slotDur,
				Deadline:     time.Duration(rel+win) * slotDur,
				EstRemaining: perSlot.Scale(durSlots),
				ParallelCap:  perSlot,
				MinSlots:     durSlots,
				Request:      perSlot,
				Ready:        true,
			})
		}
		slack := time.Duration(rng.Intn(3)) * 30 * time.Second
		f := New(Config{Slack: slack, MaxLexRounds: 3})
		if _, err := f.Assign(sched.AssignContext{
			Now: now, Changed: true, Jobs: jobs, Cluster: cl,
		}); err != nil {
			t.Fatalf("trial %d: Assign: %v", trial, err)
		}

		// Invariants over the produced plan.
		planned := make(map[string]resource.Vector, len(jobs))
		var load []resource.Vector
		for _, j := range jobs {
			slots := f.plan[j.ID]
			if len(load) == 0 {
				load = make([]resource.Vector, len(slots))
			}
			relSlot := int64(j.Release / slotDur)
			dlSlot := int64(j.Deadline / slotDur)
			for off, g := range slots {
				if g.IsZero() {
					continue
				}
				abs := f.planFrom + int64(off)
				if abs < relSlot && relSlot > now {
					t.Errorf("trial %d: job %s granted %v before release (slot %d < %d)",
						trial, j.ID, g, abs, relSlot)
				}
				if abs >= dlSlot && dlSlot > now {
					t.Errorf("trial %d: job %s granted %v at/after deadline slot %d",
						trial, j.ID, g, dlSlot)
				}
				if !g.FitsIn(j.ParallelCap) {
					t.Errorf("trial %d: job %s slot grant %v exceeds parallel cap %v",
						trial, j.ID, g, j.ParallelCap)
				}
				planned[j.ID] = planned[j.ID].Add(g)
				load[off] = load[off].Add(g)
			}
		}
		for _, l := range load {
			if !l.FitsIn(capacity) {
				t.Errorf("trial %d: planned load %v exceeds capacity %v", trial, l, capacity)
			}
		}
		// Conservation: planned + deferred covers the demand exactly.
		for _, j := range jobs {
			got := planned[j.ID].Add(f.deferred[j.ID])
			if got != j.EstRemaining {
				t.Errorf("trial %d: job %s planned+deferred %v != demand %v",
					trial, j.ID, got, j.EstRemaining)
			}
		}
	}
}

// TestLexMinMaxLevelsMatchPlanPeak cross-checks the integral repair against
// the skyline: the plan's peak normalized load must not exceed the lexmin
// optimum by more than the rounding granularity.
func TestLexMinMaxLevelsMatchPlanPeak(t *testing.T) {
	capacity := resource.New(20, 20*1024)
	cl := sched.ClusterView{
		SlotDur: slotDur,
		Horizon: 100,
		CapAt:   func(int64) resource.Vector { return capacity },
	}
	// Two jobs sharing a 10-slot window: demands 40+60=100 cores over 10
	// slots at 20 cores/slot -> perfectly flat lexmin level 0.5.
	jobs := []sched.JobState{
		dlJob("a", 0, 10, resource.New(40, 40*512), resource.New(10, 10*512)),
		dlJob("b", 0, 10, resource.New(60, 60*512), resource.New(12, 12*512)),
	}
	f := New(Config{Slack: 0, MaxLexRounds: 0})
	if _, err := f.Assign(sched.AssignContext{Now: 0, Changed: true, Jobs: jobs, Cluster: cl}); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	peak := 0.0
	for _, l := range f.PlannedLoad() {
		if s := l.DominantShare(capacity); s > peak {
			peak = s
		}
	}
	if peak > 0.5+0.06 { // one unit of rounding on 20 cores = 0.05
		t.Errorf("plan peak %.3f exceeds lexmin optimum 0.5 beyond rounding", peak)
	}
}
