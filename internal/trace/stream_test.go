package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleWf(id string) WorkflowRecord {
	return WorkflowRecord{
		ID: id, SubmitSec: 10, DeadlineSec: 500,
		Jobs: []JobRecord{
			{Name: "a", Tasks: 2, TaskDurSec: 30, DemandVCores: 1, DemandMemMB: 512},
			{Name: "b", Tasks: 1, TaskDurSec: 60, DemandVCores: 2, DemandMemMB: 1024},
		},
		Deps: [][2]int{{0, 1}},
	}
}

func sampleAh(id string) AdHocRecord {
	return AdHocRecord{ID: id, SubmitSec: 42, Tasks: 3, TaskDurSec: 20, DemandVCores: 1, DemandMemMB: 256}
}

func TestStreamWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	meta := &Meta{Generator: "test", Seed: 9, Params: map[string]string{"k": "v"}}
	sw := NewStreamWriter(&buf, meta)
	for _, id := range []string{"w1", "w2"} {
		if err := sw.Workflow(sampleWf(id)); err != nil {
			t.Fatalf("Workflow: %v", err)
		}
	}
	for _, id := range []string{"a1", "a2", "a3"} {
		if err := sw.AdHoc(sampleAh(id)); err != nil {
			t.Fatalf("AdHoc: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The strict batch reader accepts the streamed document.
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if tr.Version != FormatVersion {
		t.Fatalf("version = %d", tr.Version)
	}
	if tr.Meta == nil || tr.Meta.Generator != "test" || tr.Meta.Seed != 9 || tr.Meta.Params["k"] != "v" {
		t.Fatalf("meta = %+v", tr.Meta)
	}
	if len(tr.Workflows) != 2 || len(tr.AdHoc) != 3 {
		t.Fatalf("records: %d workflows, %d ad-hoc", len(tr.Workflows), len(tr.AdHoc))
	}

	var wfIDs, ahIDs []string
	for _, wf := range tr.Workflows {
		wfIDs = append(wfIDs, wf.ID)
	}
	for _, ah := range tr.AdHoc {
		ahIDs = append(ahIDs, ah.ID)
	}
	if strings.Join(wfIDs, ",") != "w1,w2" || strings.Join(ahIDs, ",") != "a1,a2,a3" {
		t.Fatalf("read back %v / %v", wfIDs, ahIDs)
	}
}

func TestStreamWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, nil)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty streamed doc rejected: %v", err)
	}
}

func TestStreamWriterOrdering(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, nil)
	if err := sw.AdHoc(sampleAh("a")); err != nil {
		t.Fatalf("AdHoc: %v", err)
	}
	if err := sw.Workflow(sampleWf("w")); err == nil {
		t.Fatal("workflow accepted after ad-hoc records")
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sw.AdHoc(sampleAh("b")); err == nil {
		t.Fatal("write accepted after Close")
	}
}

func TestStreamWriterValidates(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, nil)
	bad := sampleWf("w")
	bad.DeadlineSec = 1 // before submit
	if err := sw.Workflow(bad); err == nil {
		t.Fatal("invalid workflow record streamed without error")
	}
}

func TestVersionGate(t *testing.T) {
	// A v1 document (no meta) is still accepted.
	v1 := `{"version":1,"workflows":[],"adhoc":[]}`
	if _, err := Read(strings.NewReader(v1)); err != nil {
		t.Fatalf("v1 rejected: %v", err)
	}

	// A future version is refused loudly, even when it carries unknown
	// fields.
	future := `{"version":99,"hologram":true,"workflows":[],"adhoc":[]}`
	_, err := Read(strings.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "unknown future version 99") {
		t.Fatalf("Read future version: err = %v", err)
	}

	// Version zero and missing versions are invalid.
	if _, err := Read(strings.NewReader(`{"version":0,"workflows":[],"adhoc":[]}`)); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := Read(strings.NewReader(`{"workflows":[],"adhoc":[]}`)); err == nil {
		t.Fatal("document without a version accepted")
	}
}

func TestStreamedDocumentTruncated(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, nil)
	for i := 0; i < 3; i++ {
		if err := sw.AdHoc(sampleAh("a" + string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{buf.Len() / 2, buf.Len() - 3} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("document cut at %d of %d bytes read without error", cut, buf.Len())
		}
	}
}

func TestMetaRoundTripBatch(t *testing.T) {
	tr := &Trace{
		Version: FormatVersion,
		Meta:    &Meta{Generator: "ftgen", Seed: 3},
		AdHoc:   []AdHocRecord{sampleAh("x")},
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta == nil || back.Meta.Generator != "ftgen" || back.Meta.Seed != 3 {
		t.Fatalf("meta = %+v", back.Meta)
	}
}
