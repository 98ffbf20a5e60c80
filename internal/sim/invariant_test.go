package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

func obsOK(id string) Observation {
	return Observation{
		ID:        id,
		Granted:   resource.New(2, 200),
		Request:   resource.New(4, 400),
		Ready:     true,
		Consumed:  resource.New(2, 200),
		Remaining: resource.New(6, 600),
	}
}

func TestInvariantCheckerViolations(t *testing.T) {
	capacity := resource.New(10, 1000)
	tests := []struct {
		name string
		obs  func() []Observation
		want string
	}{
		{"clean", func() []Observation { return []Observation{obsOK("a")} }, ""},
		{"duplicate observation", func() []Observation {
			return []Observation{obsOK("a"), obsOK("a")}
		}, "observed twice"},
		{"negative grant", func() []Observation {
			o := obsOK("a")
			o.Granted = o.Granted.Sub(resource.New(5, 0))
			return []Observation{o}
		}, "negative grant"},
		{"grant over request", func() []Observation {
			o := obsOK("a")
			o.Granted = resource.New(5, 500)
			return []Observation{o}
		}, "over request"},
		{"grant while blocked", func() []Observation {
			o := obsOK("a")
			o.Ready = false
			return []Observation{o}
		}, "not ready"},
		{"negative remaining", func() []Observation {
			o := obsOK("a")
			o.Remaining = o.Remaining.Sub(resource.New(100, 0))
			return []Observation{o}
		}, "negative remaining"},
		{"over capacity", func() []Observation {
			a, b, c := obsOK("a"), obsOK("b"), obsOK("c")
			a.Granted = resource.New(4, 400)
			a.Request = resource.New(4, 400)
			b.Granted, b.Request = a.Granted, a.Request
			c.Granted, c.Request = a.Granted, a.Request
			return []Observation{a, b, c}
		}, "exceeds capacity"},
		{"done with remaining", func() []Observation {
			o := obsOK("a")
			o.Done = true
			return []Observation{o}
		}, "done with remaining"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := NewInvariantChecker().CheckSlot(0, capacity, tt.obs())
			if tt.want == "" {
				if err != nil {
					t.Fatalf("CheckSlot = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("CheckSlot = %v, want error mentioning %q", err, tt.want)
			}
		})
	}
}

func TestInvariantCheckerCrossSlotHistory(t *testing.T) {
	capacity := resource.New(10, 1000)

	t.Run("consumed regression", func(t *testing.T) {
		c := NewInvariantChecker()
		if err := c.CheckSlot(0, capacity, []Observation{obsOK("a")}); err != nil {
			t.Fatal(err)
		}
		o := obsOK("a")
		o.Granted = resource.Vector{}
		o.Consumed = resource.New(1, 100) // below slot 0's consumption
		o.Remaining = resource.New(7, 700)
		if err := c.CheckSlot(1, capacity, []Observation{o}); err == nil ||
			!strings.Contains(err.Error(), "regressed") {
			t.Fatalf("CheckSlot = %v, want regression error", err)
		}
	})

	t.Run("work conservation", func(t *testing.T) {
		c := NewInvariantChecker()
		if err := c.CheckSlot(0, capacity, []Observation{obsOK("a")}); err != nil {
			t.Fatal(err)
		}
		o := obsOK("a")
		o.Granted = resource.Vector{}
		o.Remaining = o.Remaining.Add(resource.New(1, 0)) // work appeared from nowhere
		if err := c.CheckSlot(1, capacity, []Observation{o}); err == nil ||
			!strings.Contains(err.Error(), "not conserved") {
			t.Fatalf("CheckSlot = %v, want conservation error", err)
		}
	})

	t.Run("completion revoked", func(t *testing.T) {
		c := NewInvariantChecker()
		done := obsOK("a")
		done.Granted = resource.New(6, 600)
		done.Request = resource.New(6, 600)
		done.Consumed = resource.New(8, 800)
		done.Remaining = resource.Vector{}
		done.Done = true
		if err := c.CheckSlot(0, capacity, []Observation{done}); err != nil {
			t.Fatal(err)
		}
		undone := done
		undone.Granted = resource.Vector{}
		undone.Done = false
		if err := c.CheckSlot(1, capacity, []Observation{undone}); err == nil ||
			!strings.Contains(err.Error(), "revoked") {
			t.Fatalf("CheckSlot = %v, want revocation error", err)
		}
	})

	t.Run("grant after completion", func(t *testing.T) {
		c := NewInvariantChecker()
		done := obsOK("a")
		done.Granted = resource.Vector{}
		done.Consumed = resource.New(8, 800)
		done.Remaining = resource.Vector{}
		done.Done = true
		if err := c.CheckSlot(0, capacity, []Observation{done}); err != nil {
			t.Fatal(err)
		}
		again := done
		again.Granted = resource.New(1, 100)
		if err := c.CheckSlot(1, capacity, []Observation{again}); err == nil ||
			!strings.Contains(err.Error(), "after completion") {
			t.Fatalf("CheckSlot = %v, want grant-after-completion error", err)
		}
	})
}

// TestRunWithInvariantsFlowTime runs the full pipeline with the checker
// armed: a healthy run must verify every simulated slot and finish clean.
func TestRunWithInvariantsFlowTime(t *testing.T) {
	cfg := chaosConfig(t, core.New(core.DefaultConfig()))
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.InvariantSlots == 0 || res.InvariantSlots != res.Slots {
		t.Errorf("InvariantSlots = %d, Slots = %d; want every slot checked", res.InvariantSlots, res.Slots)
	}
}

// A hostile scheduler that demands far more than any job requested; the
// sim's clamping must keep the run invariant-clean anyway.
type overGranter struct{}

func (overGranter) Name() string { return "over-granter" }
func (overGranter) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	out := make(map[string]resource.Vector, len(ctx.Jobs))
	for _, j := range ctx.Jobs {
		out[j.ID] = resource.New(1<<30, 1<<40)
	}
	return out, nil
}

func TestRunWithInvariantsHostileScheduler(t *testing.T) {
	cfg := baseConfig(overGranter{})
	cfg.Invariants = true
	cfg.Workflows = []*workflow.Workflow{twoJobChain(t)}
	cfg.AdHoc = []workflow.AdHoc{{
		ID: "a1", Submit: 0, Tasks: 3, TaskDuration: 40 * time.Second,
		TaskDemand: resource.New(2, 100),
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v (clamping must keep a hostile scheduler invariant-clean)", err)
	}
	if res.InvariantSlots != res.Slots {
		t.Errorf("InvariantSlots = %d, Slots = %d", res.InvariantSlots, res.Slots)
	}
}

func TestCheckWorkConserving(t *testing.T) {
	capacity := resource.New(10, 1000)
	job := func(id string, kind sched.JobKind, granted, request resource.Vector) Observation {
		return Observation{ID: id, Kind: kind, Granted: granted, Request: request, Ready: true}
	}
	full := resource.New(4, 400)
	tests := []struct {
		name string
		obs  []Observation
		want string
	}{
		{"idle but nobody asks for more", []Observation{
			job("d", sched.DeadlineJob, full, full), job("a", sched.AdHocJob, full, full),
		}, ""},
		{"full cluster, requests unmet", []Observation{
			job("d", sched.DeadlineJob, resource.New(2, 200), full), job("a", sched.AdHocJob, resource.New(8, 800), resource.New(9, 900)),
		}, ""},
		{"a blocked job's request is no demand", []Observation{
			{ID: "d", Kind: sched.DeadlineJob, Request: full},
		}, ""},
		{"idle beside a deadline request", []Observation{
			job("d", sched.DeadlineJob, resource.New(2, 200), full),
		}, "idle beside ready job d"},
		{"idle beside an ad-hoc request", []Observation{
			job("a", sched.AdHocJob, resource.Vector{}, full),
		}, "idle beside ready job a"},
		{"one kind idle is enough", []Observation{
			job("d", sched.DeadlineJob, resource.New(10, 400), resource.New(10, 500)),
		}, "memory-mb idle beside ready job d"},
		{"early deadline work, ad-hoc whole", []Observation{
			{ID: "d", Kind: sched.DeadlineJob, Early: true, Granted: resource.New(6, 600), Request: resource.New(8, 800), Ready: true},
			job("a", sched.AdHocJob, full, full),
		}, ""},
		{"early deadline work beside a short ad-hoc job", []Observation{
			{ID: "d", Kind: sched.DeadlineJob, Early: true, Granted: resource.New(7, 700), Request: resource.New(8, 800), Ready: true},
			job("a", sched.AdHocJob, resource.New(3, 300), full),
		}, "to d before its release while ad-hoc job a"},
		{"planned deadline work beside a short ad-hoc job", []Observation{
			job("d", sched.DeadlineJob, resource.New(7, 700), resource.New(8, 800)),
			job("a", sched.AdHocJob, resource.New(3, 300), full),
		}, ""},
		{"an offer from what every ready job left", []Observation{
			job("d", sched.DeadlineJob, full, full), job("a", sched.AdHocJob, full, full),
			{ID: "next", Kind: sched.DeadlineJob, OnConfirm: true, Granted: resource.New(2, 200), Request: full},
		}, ""},
		{"an offer beside a short deadline job", []Observation{
			job("d", sched.DeadlineJob, resource.New(6, 600), resource.New(8, 800)),
			{ID: "next", Kind: sched.DeadlineJob, OnConfirm: true, Granted: full, Request: full},
		}, "offers vcores to next, ready only on confirm, while ready job d"},
		{"an offer beside a short ad-hoc job", []Observation{
			job("a", sched.AdHocJob, resource.New(6, 600), resource.New(8, 800)),
			{ID: "next", Kind: sched.DeadlineJob, OnConfirm: true, Granted: full, Request: full},
		}, "while ready job a"},
		{"a grant to a blocked job", []Observation{
			{ID: "d", Kind: sched.DeadlineJob, Granted: full, Request: full},
		}, "d, which is neither ready nor ready on confirm"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := NewInvariantChecker().CheckWorkConserving(3, capacity, tt.obs)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("CheckWorkConserving = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("CheckWorkConserving = %v, want error mentioning %q", err, tt.want)
			}
		})
	}
}

func TestObserve(t *testing.T) {
	ctx := sched.AssignContext{
		Now: 4,
		Jobs: []sched.JobState{
			{ID: "early", Kind: sched.DeadlineJob, Release: 50 * time.Second, Request: resource.New(2, 200), Ready: true},
			{ID: "due", Kind: sched.DeadlineJob, Release: 40 * time.Second, Request: resource.New(2, 200), ReadyOnConfirm: true},
			{ID: "a", Kind: sched.AdHocJob, Request: resource.New(1, 100), Ready: true},
		},
		Cluster: sched.ClusterView{SlotDur: 10 * time.Second},
	}
	got := Observe(ctx, map[string]resource.Vector{"early": resource.New(2, 200)})
	want := []Observation{
		{ID: "early", Kind: sched.DeadlineJob, Early: true, Granted: resource.New(2, 200), Request: resource.New(2, 200), Ready: true},
		{ID: "due", Kind: sched.DeadlineJob, Request: resource.New(2, 200), OnConfirm: true},
		{ID: "a", Kind: sched.AdHocJob, Request: resource.New(1, 100), Ready: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Observe = %+v\nwant %+v", got, want)
	}
}
