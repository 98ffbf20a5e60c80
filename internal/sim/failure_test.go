package sim

import (
	"maps"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/sched"
	"flowtime/internal/workflow"
)

// dipProfile is a cluster of constant capacity full that runs at num/den
// of it during [from, until): one machine and two scale events.
func dipProfile(t *testing.T, full resource.Vector, from, until, num, den int64) *machine.Profile {
	t.Helper()
	p, err := machine.NewProfile(
		[]machine.Spec{{ID: "cluster", Capacity: full}},
		[]machine.Event{
			{Slot: from, Kind: machine.SetScale, ScaleNum: num, ScaleDen: den},
			{Slot: until, Kind: machine.SetScale, ScaleNum: 1, ScaleDen: 1},
		})
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	return p
}

// TestCapacityDipRecovery injects a 50% capacity outage in the middle of a
// run (DESIGN.md §7.1, fault injection) and checks that every scheduler
// still completes the work, never exceeds the reduced capacity during the
// dip, and that FlowTime replans around it.
func TestCapacityDipRecovery(t *testing.T) {
	full := resource.New(20, 2000)
	profile := dipProfile(t, full, 20, 40, 1, 2)

	mkWorkload := func() []*workflow.Workflow {
		w := workflow.New("dip-wf", 0, 1500*time.Second)
		a := w.AddJob(workflow.Job{
			Name: "stage-a", Tasks: 10,
			TaskDuration: 200 * time.Second,
			TaskDemand:   resource.New(1, 100),
		})
		b := w.AddJob(workflow.Job{
			Name: "stage-b", Tasks: 10,
			TaskDuration: 200 * time.Second,
			TaskDemand:   resource.New(1, 100),
		})
		w.AddDep(a, b)
		return []*workflow.Workflow{w}
	}

	for _, s := range []sched.Scheduler{
		core.New(core.DefaultConfig()),
		sched.NewEDF(),
		sched.NewFair(),
		sched.NewFIFO(),
	} {
		t.Run(s.Name(), func(t *testing.T) {
			res, err := Run(Config{
				SlotDur:    slotDur,
				Horizon:    400,
				Capacity:   profile.CapAt,
				Scheduler:  s,
				Workflows:  mkWorkload(),
				RecordLoad: true,
				AdHoc: []workflow.AdHoc{{
					ID: "probe", Submit: 250 * time.Second, Tasks: 4,
					TaskDuration: 60 * time.Second, TaskDemand: resource.New(1, 100),
				}},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, j := range res.Jobs {
				if !j.Completed {
					t.Errorf("job %s/%s never completed after the dip", j.WorkflowID, j.JobName)
				}
			}
			for _, a := range res.AdHoc {
				if !a.Completed {
					t.Errorf("ad-hoc %s never completed", a.ID)
				}
			}
			for _, l := range res.Load {
				used := l.Deadline.Add(l.AdHoc)
				if !used.FitsIn(l.Capacity) {
					t.Errorf("slot %d: load %v exceeds dipped capacity %v", l.Slot, used, l.Capacity)
				}
				if l.Slot >= 20 && l.Slot < 40 {
					if got := l.Capacity.Get(resource.VCores); got != 10 {
						t.Fatalf("slot %d: capacity %d, want 10 during dip", l.Slot, got)
					}
				}
			}
		})
	}
}

// replanCauses is a FlowTime that counts its replans by cause.
type replanCauses struct {
	*core.FlowTime
	n map[string]int
}

func (r *replanCauses) Assign(ctx sched.AssignContext) (map[string]resource.Vector, error) {
	grants, err := r.FlowTime.Assign(ctx)
	if cause := r.LastReplan().Cause; cause != "" {
		r.n[cause]++
	}
	return grants, err
}

// TestFlowTimeAnticipatesKnownDip verifies that a capacity dip encoded in
// the profile is handled within a single plan: FlowTime sees CapAt for
// future slots, so a *scheduled* outage needs no reactive replanning. The
// one other replan is the quality replan of the slot whose tick finds the
// job's whole remainder in flight, ahead of its plan.
func TestFlowTimeAnticipatesKnownDip(t *testing.T) {
	full := resource.New(20, 2000)
	profile := dipProfile(t, full, 5, 10, 1, 4)
	f := &replanCauses{FlowTime: core.New(core.Config{Slack: 0}), n: map[string]int{}}
	w := workflow.New("w", 0, 600*time.Second)
	w.AddJob(workflow.Job{
		Name: "j", Tasks: 10,
		TaskDuration: 100 * time.Second,
		TaskDemand:   resource.New(1, 100),
	})
	res, err := Run(Config{
		SlotDur:    slotDur,
		Horizon:    100,
		Capacity:   profile.CapAt,
		Scheduler:  f,
		Workflows:  []*workflow.Workflow{w},
		RecordLoad: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := map[string]int{sched.ReplanUrgent: 1, sched.ReplanQuality: 1}; !maps.Equal(f.n, want) {
		t.Errorf("replans by cause = %v, want %v (the dip is known in advance)", f.n, want)
	}
	for _, l := range res.Load {
		if l.Slot >= 5 && l.Slot < 10 {
			if got := l.Deadline.Get(resource.VCores); got > 5 {
				t.Errorf("slot %d: deadline load %d exceeds dipped capacity 5", l.Slot, got)
			}
		}
	}
	if !res.Jobs[0].Completed || res.Jobs[0].Missed() {
		t.Errorf("job outcome %+v, want completed on time around the dip", res.Jobs[0])
	}
}
