package sched

import (
	"fmt"
	"testing"
	"time"

	"flowtime/internal/resource"
)

const slotDur = 10 * time.Second

func view(capacity resource.Vector, horizon int64) ClusterView {
	return ClusterView{
		SlotDur: slotDur,
		Horizon: horizon,
		CapAt:   func(int64) resource.Vector { return capacity },
	}
}

func deadlineJob(id string, arrived, release, deadline time.Duration, remaining, capV resource.Vector) JobState {
	return JobState{
		ID:           id,
		Kind:         DeadlineJob,
		WorkflowID:   "wf",
		JobName:      id,
		Arrived:      arrived,
		Release:      release,
		Deadline:     deadline,
		EstRemaining: remaining,
		ParallelCap:  capV,
		MinSlots:     1,
		Request:      capV,
		Ready:        true,
	}
}

func adhocJob(id string, arrived time.Duration, request resource.Vector) JobState {
	return JobState{
		ID:      id,
		Kind:    AdHocJob,
		Arrived: arrived,
		Request: request,
		Ready:   true,
	}
}

func TestJobKindString(t *testing.T) {
	if DeadlineJob.String() != "deadline" || AdHocJob.String() != "adhoc" || JobKind(0).String() != "unknown" {
		t.Error("JobKind.String mismatch")
	}
}

func TestFIFOGrantsInArrivalOrder(t *testing.T) {
	s := NewFIFO()
	ctx := AssignContext{
		Now:     0,
		Changed: true,
		Jobs: []JobState{
			adhocJob("late", 20*time.Second, resource.New(6, 600)),
			adhocJob("early", 0, resource.New(6, 600)),
		},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got, want := grants["early"], resource.New(6, 600); got != want {
		t.Errorf("early grant = %v, want %v (full request)", got, want)
	}
	if got, want := grants["late"], resource.New(4, 400); got != want {
		t.Errorf("late grant = %v, want %v (leftover)", got, want)
	}
}

func TestFIFOSkipsNotReadyAndZeroRequest(t *testing.T) {
	s := NewFIFO()
	blocked := adhocJob("blocked", 0, resource.New(5, 500))
	blocked.Ready = false
	done := adhocJob("done", 0, resource.Vector{})
	ctx := AssignContext{
		Jobs:    []JobState{blocked, done, adhocJob("ok", 0, resource.New(5, 500))},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if _, ok := grants["blocked"]; ok {
		t.Error("not-ready job received a grant")
	}
	if _, ok := grants["done"]; ok {
		t.Error("zero-request job received a grant")
	}
	if got, want := grants["ok"], resource.New(5, 500); got != want {
		t.Errorf("ok grant = %v, want %v", got, want)
	}
}

func TestFairSplitsEvenly(t *testing.T) {
	s := NewFair()
	ctx := AssignContext{
		Jobs: []JobState{
			adhocJob("a", 0, resource.New(10, 1000)),
			adhocJob("b", 0, resource.New(10, 1000)),
		},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	ga, gb := grants["a"], grants["b"]
	if ga.Get(resource.VCores)+gb.Get(resource.VCores) != 10 {
		t.Errorf("total cores granted = %d, want 10 (work conserving)", ga.Get(resource.VCores)+gb.Get(resource.VCores))
	}
	diff := ga.Get(resource.VCores) - gb.Get(resource.VCores)
	if diff < -1 || diff > 1 {
		t.Errorf("grants %v vs %v not balanced", ga, gb)
	}
}

func TestFairSmallDemandFullySatisfied(t *testing.T) {
	s := NewFair()
	ctx := AssignContext{
		Jobs: []JobState{
			adhocJob("small", 0, resource.New(2, 200)),
			adhocJob("big", 0, resource.New(100, 10000)),
		},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got, want := grants["small"], resource.New(2, 200); got != want {
		t.Errorf("small grant = %v, want full %v", got, want)
	}
	if got, want := grants["big"], resource.New(8, 800); got != want {
		t.Errorf("big grant = %v, want remainder %v", got, want)
	}
}

func TestEDFOrdersByDeadlineThenStarvesAdHoc(t *testing.T) {
	s := NewEDF()
	ctx := AssignContext{
		Jobs: []JobState{
			adhocJob("adhoc", 0, resource.New(10, 1000)),
			deadlineJob("loose", 0, 0, 500*time.Second, resource.New(40, 4000), resource.New(8, 800)),
			deadlineJob("tight", 0, 0, 100*time.Second, resource.New(40, 4000), resource.New(8, 800)),
		},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got, want := grants["tight"], resource.New(8, 800); got != want {
		t.Errorf("tight grant = %v, want full %v", got, want)
	}
	if got, want := grants["loose"], resource.New(2, 200); got != want {
		t.Errorf("loose grant = %v, want leftover %v", got, want)
	}
	if _, ok := grants["adhoc"]; ok {
		t.Errorf("ad-hoc job granted %v while deadline work pending (EDF must starve it)", grants["adhoc"])
	}
}

func TestCORABalancesBothClasses(t *testing.T) {
	s := NewCORA()
	// A deadline job needing only half its rate, and an ad-hoc job that has
	// waited 120 slots (utility 2 > deadline's 1): CORA must give the
	// ad-hoc job a substantial share, unlike EDF.
	ctx := AssignContext{
		Now: 120,
		Jobs: []JobState{
			deadlineJob("dl", 0, 0, 4000*time.Second, resource.New(200, 20000), resource.New(2, 200)),
			adhocJob("ah", 0, resource.New(10, 1000)),
		},
		Cluster: view(resource.New(10, 1000), 1000),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["ah"]; g.Get(resource.VCores) < 5 {
		t.Errorf("ad-hoc grant = %v, want a substantial share under CORA", g)
	}
	total := sumGrants(grants)
	if total.Get(resource.VCores) > 10 || total.Get(resource.MemoryMB) > 1000 {
		t.Errorf("grants %v exceed capacity", total)
	}
}

func TestCORAPrioritizesUrgentDeadline(t *testing.T) {
	s := NewCORA()
	// Deadline job needs its full rate to finish: it must win most of the
	// contested capacity over a freshly arrived ad-hoc job.
	ctx := AssignContext{
		Now: 0,
		Jobs: []JobState{
			deadlineJob("dl", 0, 0, 100*time.Second, resource.New(100, 10000), resource.New(10, 1000)),
			adhocJob("ah", 0, resource.New(10, 1000)),
		},
		Cluster: view(resource.New(10, 1000), 1000),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["dl"]; g.Get(resource.VCores) < 8 {
		t.Errorf("urgent deadline grant = %v, want most of the cluster", g)
	}
}

func TestMorpheusFallsBackToDecomposedWindow(t *testing.T) {
	s := NewMorpheus(nil)
	ctx := AssignContext{
		Now:     0,
		Changed: true,
		Jobs: []JobState{
			deadlineJob("j", 0, 0, 100*time.Second, resource.New(20, 2000), resource.New(10, 1000)),
		},
		Cluster: view(resource.New(10, 1000), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["j"]; g.IsZero() {
		t.Error("job with live window received nothing")
	}
}

func TestMorpheusUsesHistoryWindows(t *testing.T) {
	// History says the job historically ran in [300s, 400s]; even though
	// its decomposed window starts now, Morpheus should defer it and give
	// the slot to the ad-hoc job.
	h := History{
		"wf": {
			{Spans: map[string]JobSpan{"j": {Start: 300 * time.Second, End: 400 * time.Second}}},
			{Spans: map[string]JobSpan{"j": {Start: 310 * time.Second, End: 390 * time.Second}}},
			{Spans: map[string]JobSpan{"j": {Start: 305 * time.Second, End: 395 * time.Second}}},
		},
	}
	s := NewMorpheus(h)
	dj := deadlineJob("j", 0, 0, 1000*time.Second, resource.New(20, 2000), resource.New(10, 1000))
	ctx := AssignContext{
		Now:     0,
		Changed: true,
		Jobs: []JobState{
			dj,
			adhocJob("ah", 0, resource.New(10, 1000)),
		},
		Cluster: view(resource.New(10, 1000), 200),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["j"]; !g.IsZero() {
		t.Errorf("deadline job granted %v before its inferred window", g)
	}
	if g := grants["ah"]; g.Get(resource.VCores) != 10 {
		t.Errorf("ad-hoc grant = %v, want the whole cluster", g)
	}
}

func TestMorpheusServesOverdueJobs(t *testing.T) {
	h := History{
		"wf": {{Spans: map[string]JobSpan{"j": {Start: 0, End: 50 * time.Second}}}},
	}
	s := NewMorpheus(h)
	dj := deadlineJob("j", 0, 0, 1000*time.Second, resource.New(20, 2000), resource.New(10, 1000))
	ctx := AssignContext{
		Now:     20, // inferred deadline slot was 5
		Changed: true,
		Jobs:    []JobState{dj},
		Cluster: view(resource.New(10, 1000), 200),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if g := grants["j"]; g.IsZero() {
		t.Error("overdue job received nothing")
	}
}

// All schedulers must never exceed capacity and never grant to not-ready
// jobs, across a mixed scenario sweep.
func TestAllSchedulersRespectCapacityAndReadiness(t *testing.T) {
	scheds := []Scheduler{NewFIFO(), NewFair(), NewEDF(), NewCORA(), NewMorpheus(nil)}
	capacity := resource.New(16, 2048)
	for _, s := range scheds {
		t.Run(s.Name(), func(t *testing.T) {
			for n := 1; n <= 12; n++ {
				var jobs []JobState
				for i := 0; i < n; i++ {
					var j JobState
					if i%2 == 0 {
						j = deadlineJob(fmt.Sprintf("d%d", i), 0, 0,
							time.Duration(100+i*50)*time.Second,
							resource.New(int64(10+i), int64(1000+i*100)),
							resource.New(4, 512))
					} else {
						j = adhocJob(fmt.Sprintf("a%d", i), time.Duration(i)*time.Second, resource.New(6, 768))
					}
					j.Ready = i%3 != 2
					jobs = append(jobs, j)
				}
				grants, err := s.Assign(AssignContext{
					Now: 1, Changed: true, Jobs: jobs,
					Cluster: view(capacity, 500),
				})
				if err != nil {
					t.Fatalf("n=%d: Assign: %v", n, err)
				}
				total := sumGrants(grants)
				if !total.FitsIn(capacity) {
					t.Fatalf("n=%d: grants %v exceed capacity %v", n, total, capacity)
				}
				for _, j := range jobs {
					g := grants[j.ID]
					if !j.Ready && !g.IsZero() {
						t.Fatalf("n=%d: not-ready job %s granted %v", n, j.ID, g)
					}
					if !g.FitsIn(j.Request) {
						t.Fatalf("n=%d: job %s granted %v beyond request %v", n, j.ID, g, j.Request)
					}
				}
			}
		})
	}
}

func TestMorpheusPacksAwayFromPeak(t *testing.T) {
	// Two identical jobs share a wide window; the cluster fits both
	// simultaneously, but least-peak packing should spread their
	// rectangles rather than stack them.
	s := NewMorpheus(nil)
	mk := func(id string) JobState {
		j := deadlineJob(id, 0, 0, 200*time.Second, resource.New(20, 2000), resource.New(10, 1000))
		j.MinSlots = 2
		return j
	}
	ctx := AssignContext{
		Now: 0, Changed: true,
		Jobs:    []JobState{mk("a"), mk("b")},
		Cluster: view(resource.New(12, 1200), 100),
	}
	grants, err := s.Assign(ctx)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	total := sumGrants(grants)
	if !total.FitsIn(resource.New(12, 1200)) {
		t.Fatalf("slot-0 grants %v exceed capacity", total)
	}
	// With least-peak packing one job starts now and the other is placed
	// later in the window, so slot 0 must not carry both at full height.
	if total.Get(resource.VCores) > 12 {
		t.Fatalf("impossible: clamped above capacity")
	}
	if len(grants) == 2 && grants["a"].Get(resource.VCores)+grants["b"].Get(resource.VCores) > 12 {
		t.Errorf("both rectangles stacked in slot 0: %v", grants)
	}
}

func TestSortJobsStableDeterministic(t *testing.T) {
	jobs := []JobState{
		adhocJob("b", time.Second, resource.New(1, 1)),
		adhocJob("a", time.Second, resource.New(1, 1)),
		adhocJob("c", 0, resource.New(1, 1)),
	}
	got := sortJobs(jobs, byArrival)
	if got[0].ID != "c" || got[1].ID != "a" || got[2].ID != "b" {
		t.Errorf("sortJobs order = %s, %s, %s; want c, a, b", got[0].ID, got[1].ID, got[2].ID)
	}
	if jobs[0].ID != "b" {
		t.Error("sortJobs mutated its input")
	}
}

// sumGrants is the total of all grants.
func sumGrants(grants map[string]resource.Vector) resource.Vector {
	var total resource.Vector
	for _, g := range grants {
		total = total.Add(g)
	}
	return total
}
