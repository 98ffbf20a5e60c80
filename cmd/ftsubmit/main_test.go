package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmproto"
	"flowtime/internal/rmserver"
	"flowtime/internal/trace"
)

// TestSubmitReportsRejections runs ftsubmit against an RM whose ad-hoc
// gate has no plan revision yet, so it turns every ad-hoc job away with a
// 200 and accepted=false: each is reported as rejected, not submitted, a
// workflow admitted without a feasible decomposition says so, the run
// ends with the count line, and the exit code is 1.
func TestSubmitReportsRejections(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StreamPlans = true
	rm, err := rmserver.New(rmserver.Config{SlotDur: 10 * time.Second, Scheduler: core.New(cfg), AdHocGate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := rm.RegisterNode(rmproto.RegisterNodeRequest{NodeID: "n1",
		Capacity: rmproto.Resources{VCores: 8, MemoryMB: 16384}}, time.Now()); err != nil {
		t.Fatalf("RegisterNode: %v", err)
	}
	ts := httptest.NewServer(rm.Handler())
	defer ts.Close()

	job := trace.JobRecord{Name: "a", Tasks: 4, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 1024}
	adhoc := trace.AdHocRecord{Tasks: 1, TaskDurSec: 10, DemandVCores: 1, DemandMemMB: 512}
	tr := trace.Trace{Version: trace.FormatVersion,
		Workflows: []trace.WorkflowRecord{
			{ID: "wf-ok", DeadlineSec: 600, Jobs: []trace.JobRecord{job}},
			{ID: "wf-tight", DeadlineSec: 5, Jobs: []trace.JobRecord{job}}, // under one slot: no decomposition
		},
		AdHoc: []trace.AdHocRecord{adhoc, adhoc},
	}
	tr.AdHoc[0].ID, tr.AdHoc[1].ID = "x", "y"
	path := writeTrace(t, tr)

	var stdout, stderr bytes.Buffer
	code := cli([]string{"-rm", ts.URL, "-trace", path}, &stdout, &stderr)
	want := strings.Join([]string{
		"submitted workflow wf-ok",
		"submitted workflow wf-tight, admitted best-effort",
		"rejected ad-hoc job adhoc/x (admission gate)",
		"rejected ad-hoc job adhoc/y (admission gate)",
		"2 of 4 submissions accepted (1 best-effort), 2 rejected",
	}, "\n") + "\n"
	if got := stdout.String(); got != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
	}
	if code != 1 || !strings.Contains(stderr.String(), "not every submission was accepted") {
		t.Errorf("exit %d with stderr %q, want 1 and the reason", code, stderr.String())
	}
	if st := rm.Status(); st.Summary.Pending != 2 || len(st.Jobs) != 2 {
		t.Errorf("the RM holds %+v, want the two workflows' jobs only", st.Summary)
	}

	// Once a tick has published a plan the gate admits, and a run in which
	// everything is accepted exits 0.
	if err := rm.Tick(time.Now()); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	adhoc.ID = "z"
	path = writeTrace(t, trace.Trace{Version: trace.FormatVersion, AdHoc: []trace.AdHocRecord{adhoc}})
	stdout.Reset()
	if code := cli([]string{"-rm", ts.URL, "-trace", path}, &stdout, &stderr); code != 0 ||
		stdout.String() != "submitted ad-hoc job adhoc/z\n1 of 1 submissions accepted (0 best-effort), 0 rejected\n" {
		t.Errorf("exit %d with stdout %q", code, stdout.String())
	}
}

// writeTrace writes tr to a file of its own and returns the path.
func writeTrace(t *testing.T, tr trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
