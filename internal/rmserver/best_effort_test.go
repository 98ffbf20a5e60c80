package rmserver

import (
	"net/http/httptest"
	"strings"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
)

// infeasibleWorkflow has a deadline window shorter than one slot, so
// deadline decomposition fails under every strategy.
func infeasibleWorkflow() rmproto.SubmitWorkflowRequest {
	wf := chainWorkflow(5) // 5s window on a 10s slot
	wf.ID = "wf-best-effort"
	return rmproto.SubmitWorkflowRequest{Workflow: wf}
}

func TestBestEffortAdmission(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)

	resp, err := rm.SubmitWorkflow(infeasibleWorkflow())
	if err != nil {
		t.Fatalf("SubmitWorkflow: %v (infeasible decomposition must degrade, not reject)", err)
	}
	if !resp.Accepted || !resp.BestEffort {
		t.Fatalf("SubmitWorkflow = %+v, want accepted best-effort", resp)
	}

	st := rm.Status()
	if st.Faults.BestEffortAdmissions != 1 {
		t.Errorf("BestEffortAdmissions = %d, want 1", st.Faults.BestEffortAdmissions)
	}
	for _, j := range st.Jobs {
		if !j.BestEffort {
			t.Errorf("job %s not flagged best-effort", j.ID)
		}
	}

	// Best-effort jobs still run to completion from leftover capacity.
	st = c.runToCompletion(60)
	for _, j := range st.Jobs {
		if j.State != "completed" {
			t.Errorf("best-effort job %s state = %s, want completed", j.ID, j.State)
		}
	}
}

func TestFeasibleSubmissionIsNotBestEffort(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	resp, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)})
	if err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	if resp.BestEffort {
		t.Error("feasible workflow flagged best-effort")
	}
	if n := rm.Status().Faults.BestEffortAdmissions; n != 0 {
		t.Errorf("BestEffortAdmissions = %d, want 0", n)
	}
}

func TestMetricsExposeLadderAndAdmissions(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	if _, err := rm.SubmitWorkflow(infeasibleWorkflow()); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.runToCompletion(20)

	rec := httptest.NewRecorder()
	rm.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"flowtime_rm_best_effort_admissions 1",
		"flowtime_sched_degrade_level",
		"flowtime_sched_fallback_minmax_total",
		"flowtime_sched_fallback_greedy_total",
		"flowtime_sched_invalid_plans_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStatusCarriesDegradation(t *testing.T) {
	c := newCluster(t, Config{Scheduler: core.New(core.DefaultConfig())}, nil)
	rm := c.rm
	c.register("n1", 8, 16*1024)
	if _, err := rm.SubmitWorkflow(rmproto.SubmitWorkflowRequest{Workflow: chainWorkflow(600)}); err != nil {
		t.Fatalf("SubmitWorkflow: %v", err)
	}
	c.runToCompletion(80)
	st := rm.Status()
	if st.Degradation == nil {
		t.Fatal("Status().Degradation = nil, want ladder telemetry for FlowTime")
	}
	if st.Degradation.Level == "" {
		t.Error("Degradation.Level empty")
	}
}
