package sim

import (
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

const slotDur = 10 * time.Second

func constCap(v resource.Vector) func(int64) resource.Vector {
	return func(int64) resource.Vector { return v }
}

func simpleJob(name string, tasks int, dur time.Duration) workflow.Job {
	return workflow.Job{
		Name:         name,
		Tasks:        tasks,
		TaskDuration: dur,
		TaskDemand:   resource.New(1, 100),
	}
}

// twoJobChain builds the Fig.1 workflow: two chained jobs, each needing the
// whole cluster for 500s, deadline 2000s.
func twoJobChain(t *testing.T) *workflow.Workflow {
	t.Helper()
	w := workflow.New("w1", 0, 2000*time.Second)
	a := w.AddJob(simpleJob("job1", 10, 500*time.Second))
	b := w.AddJob(simpleJob("job2", 10, 500*time.Second))
	w.AddDep(a, b)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return w
}

func baseConfig(s sched.Scheduler) Config {
	return Config{
		SlotDur:   slotDur,
		Horizon:   400,
		Capacity:  constCap(resource.New(10, 1000)),
		Scheduler: s,
	}
}

func TestRunValidation(t *testing.T) {
	ok := baseConfig(sched.NewFIFO())
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero slot", func(c *Config) { c.SlotDur = 0 }},
		{"fractional slot", func(c *Config) { c.SlotDur = 1500 * time.Millisecond }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"nil capacity", func(c *Config) { c.Capacity = nil }},
		{"nil scheduler", func(c *Config) { c.Scheduler = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ok
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunDuplicateIDsRejected(t *testing.T) {
	cfg := baseConfig(sched.NewFIFO())
	w1 := twoJobChain(t)
	w2 := twoJobChain(t) // same ID "w1"
	cfg.Workflows = []*workflow.Workflow{w1, w2}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Run = %v, want duplicate-ID error", err)
	}

	cfg = baseConfig(sched.NewFIFO())
	ah := workflow.AdHoc{ID: "a", Submit: 0, Tasks: 1, TaskDuration: time.Second, TaskDemand: resource.New(1, 1)}
	cfg.AdHoc = []workflow.AdHoc{ah, ah}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Run = %v, want duplicate-ID error", err)
	}
}

func TestSingleAdHocJobRunsToCompletion(t *testing.T) {
	cfg := baseConfig(sched.NewFIFO())
	cfg.AdHoc = []workflow.AdHoc{{
		ID: "a1", Submit: 0, Tasks: 5, TaskDuration: 30 * time.Second,
		TaskDemand: resource.New(2, 200),
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.AdHoc) != 1 || !res.AdHoc[0].Completed {
		t.Fatalf("ad-hoc outcome = %+v, want completed", res.AdHoc)
	}
	// 5 tasks x 3 slots x <2, 200>; cluster fits all 5 tasks at once -> 3 slots.
	if got, want := res.AdHoc[0].Completion, 30*time.Second; got != want {
		t.Errorf("completion = %v, want %v", got, want)
	}
	if got := res.AdHoc[0].Turnaround(res.HorizonEnd); got != 30*time.Second {
		t.Errorf("turnaround = %v, want 30s", got)
	}
}

// TestChainRespectsDependencies: job2 starts only once job1's last quanta
// are confirmed, at the heartbeat of the slot after they ran. Each job is
// 10 tasks x 50 slots, 500 core-slots at 10 a slot, so job1 completes at
// 500 s under both schedulers. FlowTime offers job2 the idle capacity at
// that slot's tick and the confirm dispatches it (a hand-off), so job2
// completes at 1000 s. EDF makes no offers: job2 waits for the next tick
// and completes at 1010 s.
func TestChainRespectsDependencies(t *testing.T) {
	for _, tc := range []struct {
		sched sched.Scheduler
		job2  time.Duration
	}{
		{core.New(core.DefaultConfig()), 1000 * time.Second},
		{sched.NewEDF(), 1010 * time.Second},
	} {
		t.Run(tc.sched.Name(), func(t *testing.T) {
			cfg := baseConfig(tc.sched)
			cfg.Workflows = []*workflow.Workflow{twoJobChain(t)}
			cfg.Invariants = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Jobs) != 2 {
				t.Fatalf("got %d job outcomes, want 2", len(res.Jobs))
			}
			var j1, j2 JobOutcome
			for _, j := range res.Jobs {
				if j.JobName == "job1" {
					j1 = j
				} else {
					j2 = j
				}
			}
			if !j1.Completed || !j2.Completed {
				t.Fatalf("jobs incomplete: %+v, %+v", j1, j2)
			}
			if j1.Completion != 500*time.Second {
				t.Errorf("job1 completion = %v, want 500s", j1.Completion)
			}
			if j2.Completion != tc.job2 {
				t.Errorf("job2 completion = %v, want %v (dependency)", j2.Completion, tc.job2)
			}
			if len(res.Workflows) != 1 || res.Workflows[0].Missed() {
				t.Errorf("workflow outcome = %+v, want met deadline", res.Workflows)
			}
		})
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	// Impossible deadline: needs 1000s of work, deadline 300s.
	w := workflow.New("tight", 0, 300*time.Second)
	a := w.AddJob(simpleJob("j1", 10, 500*time.Second))
	b := w.AddJob(simpleJob("j2", 10, 500*time.Second))
	w.AddDep(a, b)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cfg := baseConfig(sched.NewEDF())
	cfg.Workflows = []*workflow.Workflow{w}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Workflows[0].Missed() {
		t.Error("impossible deadline reported as met")
	}
	missed := 0
	for _, j := range res.Jobs {
		if j.Missed() {
			missed++
		}
	}
	if missed == 0 {
		t.Error("no job-level misses recorded for an impossible workflow")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	capacity := resource.New(10, 1000)
	for _, s := range []sched.Scheduler{
		sched.NewFIFO(), sched.NewFair(), sched.NewEDF(), sched.NewCORA(),
		sched.NewMorpheus(nil), core.New(core.DefaultConfig()),
	} {
		t.Run(s.Name(), func(t *testing.T) {
			cfg := baseConfig(s)
			cfg.RecordLoad = true
			cfg.Workflows = []*workflow.Workflow{twoJobChain(t)}
			cfg.AdHoc = []workflow.AdHoc{
				{ID: "a1", Submit: 0, Tasks: 8, TaskDuration: 40 * time.Second, TaskDemand: resource.New(1, 100)},
				{ID: "a2", Submit: 200 * time.Second, Tasks: 4, TaskDuration: 80 * time.Second, TaskDemand: resource.New(2, 150)},
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, l := range res.Load {
				if !l.Deadline.Add(l.AdHoc).FitsIn(capacity) {
					t.Fatalf("slot %d: load %v + %v exceeds capacity", l.Slot, l.Deadline, l.AdHoc)
				}
			}
			for _, j := range res.Jobs {
				if !j.Completed {
					t.Errorf("job %s/%s incomplete", j.WorkflowID, j.JobName)
				}
			}
			for _, a := range res.AdHoc {
				if !a.Completed {
					t.Errorf("ad-hoc %s incomplete", a.ID)
				}
			}
		})
	}
}

func TestFlowTimeReproducesFig1(t *testing.T) {
	// The paper's motivating example (Fig. 1): W1 = two chained jobs
	// needing the full cluster for 500s each, deadline 2000s; ad-hoc A1
	// (500s of cluster-halving work) at t=0 and A2 at t=1000s.
	//
	// EDF runs W1 flat out: A1 waits 1000s. FlowTime spreads W1 across its
	// loose window, so A1 and A2 run (nearly) immediately; both finish far
	// sooner, and W1 still meets its deadline.
	mk := func() Config {
		return Config{
			SlotDur:  slotDur,
			Horizon:  600,
			Capacity: constCap(resource.New(10, 1000)),
			Workflows: []*workflow.Workflow{func() *workflow.Workflow {
				w := workflow.New("w1", 0, 2000*time.Second)
				a := w.AddJob(simpleJob("job1", 10, 500*time.Second))
				b := w.AddJob(simpleJob("job2", 10, 500*time.Second))
				w.AddDep(a, b)
				return w
			}()},
			AdHoc: []workflow.AdHoc{
				{ID: "A1", Submit: 0, Tasks: 5, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)},
				{ID: "A2", Submit: 1000 * time.Second, Tasks: 5, TaskDuration: 500 * time.Second, TaskDemand: resource.New(1, 100)},
			},
		}
	}

	edfCfg := mk()
	edfCfg.Scheduler = sched.NewEDF()
	edfRes, err := Run(edfCfg)
	if err != nil {
		t.Fatalf("Run(EDF): %v", err)
	}

	ftCfg := mk()
	ftCfg.Scheduler = core.New(core.DefaultConfig())
	ftRes, err := Run(ftCfg)
	if err != nil {
		t.Fatalf("Run(FlowTime): %v", err)
	}

	if ftRes.Workflows[0].Missed() {
		t.Fatalf("FlowTime missed the workflow deadline: %+v", ftRes.Workflows[0])
	}

	avg := func(res *Result) time.Duration {
		var sum time.Duration
		for _, a := range res.AdHoc {
			if !a.Completed {
				t.Fatalf("ad-hoc %s incomplete", a.ID)
			}
			sum += a.Turnaround(res.HorizonEnd)
		}
		return sum / time.Duration(len(res.AdHoc))
	}
	edfAvg, ftAvg := avg(edfRes), avg(ftRes)
	if ftAvg*3/2 >= edfAvg {
		t.Errorf("FlowTime avg turnaround %v not clearly better than EDF %v", ftAvg, edfAvg)
	}
}

func TestUnderestimationRecovery(t *testing.T) {
	// Job estimated at 300s actually takes 600s: the wave-revision path
	// must keep feeding it and it must still complete.
	w := workflow.New("w", 0, 3000*time.Second)
	j := simpleJob("long", 5, 300*time.Second)
	j.ActualTaskDuration = 600 * time.Second
	w.AddJob(j)
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cfg := Config{
		SlotDur:   slotDur,
		Horizon:   500,
		Capacity:  constCap(resource.New(10, 1000)),
		Scheduler: core.New(core.DefaultConfig()),
		Workflows: []*workflow.Workflow{w},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Jobs[0].Completed {
		t.Fatal("underestimated job never completed")
	}
}

func TestEarlyExitWhenAllWorkDone(t *testing.T) {
	cfg := baseConfig(sched.NewFIFO())
	cfg.AdHoc = []workflow.AdHoc{{
		ID: "a", Submit: 0, Tasks: 1, TaskDuration: 10 * time.Second,
		TaskDemand: resource.New(1, 100),
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Slots >= cfg.Horizon {
		t.Errorf("simulated %d slots, want early exit", res.Slots)
	}
}

// recordingScheduler is FIFO, remembering the last view of each job.
type recordingScheduler struct {
	sched.Scheduler
	seen map[string]sched.JobState
}

func (r *recordingScheduler) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	for _, st := range ctx.Jobs {
		r.seen[st.ID] = st
	}
	return r.Scheduler.Assign(ctx)
}

// TestMinSlotsAtSubmissionCapacity: a workflow is admitted against one
// capacity, the cluster's at its submission, for its windows and for each
// job's MinSlots alike, as the RM admits it. Half the cluster is gone
// before this one is submitted, so its job needs twice the slots it would
// on the whole cluster.
func TestMinSlotsAtSubmissionCapacity(t *testing.T) {
	full, half := resource.New(10, 1000), resource.New(5, 500)
	w := workflow.New("w", 100*time.Second, 2000*time.Second)
	w.AddJob(simpleJob("j", 10, 50*time.Second))
	if err := w.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rec := &recordingScheduler{Scheduler: sched.NewFIFO(), seen: make(map[string]sched.JobState)}
	cfg := baseConfig(rec)
	cfg.Capacity = func(slot int64) resource.Vector {
		if slot >= 5 {
			return half
		}
		return full
	}
	cfg.Workflows = []*workflow.Workflow{w}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st, ok := rec.seen["w/j#0"]
	if !ok {
		t.Fatal("the scheduler never saw the job")
	}
	job := w.Job(0)
	if want := job.MinRuntimeSlots(slotDur, half); st.MinSlots != want || want == job.MinRuntimeSlots(slotDur, full) {
		t.Errorf("MinSlots = %d, want %d at the halved capacity (%d at full)", st.MinSlots, want, job.MinRuntimeSlots(slotDur, full))
	}
}

func TestOutcomeHelpers(t *testing.T) {
	jo := JobOutcome{Deadline: 100 * time.Second, Completion: 90 * time.Second, Completed: true}
	if jo.Missed() {
		t.Error("early job reported missed")
	}
	if got := jo.Lateness(0); got != -10*time.Second {
		t.Errorf("Lateness = %v, want -10s", got)
	}
	jo.Completed = false
	if !jo.Missed() {
		t.Error("incomplete job reported met")
	}
	if got := jo.Lateness(500 * time.Second); got != 400*time.Second {
		t.Errorf("Lateness(incomplete) = %v, want 400s", got)
	}

	ao := AdHocOutcome{Submit: 50 * time.Second}
	if got := ao.Turnaround(300 * time.Second); got != 250*time.Second {
		t.Errorf("Turnaround(incomplete) = %v, want 250s", got)
	}
}
