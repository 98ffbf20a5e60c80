package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flowtime/internal/resource"
	"flowtime/internal/trace"
)

const alibabaSample = `M1,2,j_100,A,Terminated,100,200,200,0.5
M2_1,3,j_100,A,Terminated,200,350,100,1.0
M3_1_2,1,j_100,A,Terminated,350,400,50,0.2
task_solo,4,j_200,B,Terminated,500,600,100,0.3
M1,1,j_300,A,Waiting,0,0,100,0.1
M2_1,1,j_300,A,Terminated,700,800,100,0.1
`

func TestConvertAlibaba(t *testing.T) {
	tr, stats, err := ConvertAlibaba(strings.NewReader(alibabaSample))
	if err != nil {
		t.Fatalf("ConvertAlibaba: %v", err)
	}
	if stats.Rows != 6 || stats.SkippedRows != 1 {
		t.Fatalf("stats = %+v, want 6 rows with 1 skipped", stats)
	}
	// j_100 is a 3-task DAG workflow; j_200 a single DAG-less task (ad-hoc);
	// j_300's only terminated row is M2_1 (a 1-job workflow: it has deps).
	if stats.Workflows != 2 || stats.AdHoc != 1 {
		t.Fatalf("stats = %+v, want 2 workflows + 1 ad-hoc", stats)
	}
	wfs, adhoc, err := tr.ToWorkload()
	if err != nil {
		t.Fatalf("converted trace does not round-trip: %v", err)
	}
	if len(wfs) != 2 || len(adhoc) != 1 {
		t.Fatalf("workload: %d workflows, %d ad-hoc", len(wfs), len(adhoc))
	}

	w := wfs[0]
	if w.ID != "j_100" || w.NumJobs() != 3 {
		t.Fatalf("workflow = %s with %d jobs", w.ID, w.NumJobs())
	}
	// DAG decoded from task names: t2 depends on t0 (M2_1), t3 on both.
	dag := w.DAG()
	if got := dag.Predecessors(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("preds of M2_1 = %v, want [0]", got)
	}
	if got := dag.Predecessors(2); len(got) != 2 {
		t.Fatalf("preds of M3_1_2 = %v, want two", got)
	}
	// plan_cpu 200 at 100/core -> 2 vcores; plan_mem 0.5 * 655 -> 328 MB.
	j := w.Job(0)
	if j.Tasks != 2 || j.TaskDemand.String() != "<vcores:2 memory-mb:328>" {
		t.Fatalf("job 0 = %d tasks, demand %v", j.Tasks, j.TaskDemand)
	}
	// Deadline synthesized at 4x makespan past submit.
	if w.Deadline <= w.Submit {
		t.Fatalf("deadline %v not after submit %v", w.Deadline, w.Submit)
	}

	if adhoc[0].ID != "j_200" || adhoc[0].Tasks != 4 {
		t.Fatalf("ad-hoc = %+v", adhoc[0])
	}
}

func TestConvertAlibabaRecurrence(t *testing.T) {
	// The same job name appearing in two separate contiguous runs is a
	// recurrence and must get a distinct ID.
	input := "M1_,1,j_1,A,Terminated,0,10,100,0.1\nM2_1,1,j_1,A,Terminated,10,20,100,0.1\n" +
		"task_x,1,j_9,B,Terminated,5,6,100,0.1\n" +
		"M1_,1,j_1,A,Terminated,30,40,100,0.1\nM2_1,1,j_1,A,Terminated,40,50,100,0.1\n"
	tr, stats, err := ConvertAlibaba(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workflows != 2 {
		t.Fatalf("stats = %+v, want 2 workflows", stats)
	}
	if tr.Workflows[0].ID == tr.Workflows[1].ID {
		t.Fatalf("recurrences share an ID: %q", tr.Workflows[0].ID)
	}
}

func TestConvertAlibabaMalformed(t *testing.T) {
	cases := []struct {
		name, row, want string
	}{
		{"field count", "M1,2,j_1,A,Terminated,0,10,100", "line 1"},
		{"bad instance_num", "M1,two,j_1,A,Terminated,0,10,100,0.1", "instance_num"},
		{"bad start", "M1,2,j_1,A,Terminated,zero,10,100,0.1", "start_time"},
		{"bad end", "M1,2,j_1,A,Terminated,0,ten,100,0.1", "end_time"},
		{"negative time", "M1,2,j_1,A,Terminated,-5,10,100,0.1", "negative timestamp"},
		{"out of order", "M1,2,j_1,A,Terminated,100,50,100,0.1", "out-of-order timestamps"},
		{"bad cpu", "M1,2,j_1,A,Terminated,0,10,much,0.1", "plan_cpu"},
		{"bad mem", "M1,2,j_1,A,Terminated,0,10,100,lots", "plan_mem"},
		{"negative demand", "M1,2,j_1,A,Terminated,0,10,-100,0.1", "negative demand"},
		{"empty task", ",2,j_1,A,Terminated,0,10,100,0.1", "task_name"},
		{"empty job", "M1,2,,A,Terminated,0,10,100,0.1", "job_name"},
		{"job name not UTF-8", "M1,2,j\xff,A,Terminated,0,10,100,0.1", "UTF-8"},
		// A figure int64 cannot hold once scaled used to become 1 vcore or
		// 1 MB without an error.
		{"NaN cpu", "M1,2,j_1,A,Terminated,0,10,NaN,0.1", "line 1: plan_cpu NaN"},
		{"huge cpu", "M1,2,j_1,A,Terminated,0,10,1e30,0.1", "line 1: plan_cpu 1e+30"},
		{"infinite mem", "M1,2,j_1,A,Terminated,0,10,100,Inf", "line 1: plan_mem +Inf"},
		{"huge mem", "M1,2,j_1,A,Terminated,0,10,100,1e300", "line 1: plan_mem 1e+300"},
		// A synthesized deadline used to overflow to a negative second
		// count, or to land past the largest one, and only a later replay
		// refused the document.
		{"deadline overflows", "M1,1,j_1,A,Terminated,0,10,100,0.1\nM2_1,1,j_1,A,Terminated,10,9223372036854775000,100,0.1", "overflows"},
		{"deadline out of range", "M1,1,j_1,A,Terminated,0,10,100,0.1\nM2_1,1,j_1,A,Terminated,10,4000000000,100,0.1", "deadline_sec"},
		{"cyclic task names", "M1_2,1,j_1,A,Terminated,0,10,100,0.1\nM2_1,1,j_1,A,Terminated,10,20,100,0.1", "cycle"},
	}
	for _, tc := range cases {
		_, _, err := ConvertAlibaba(strings.NewReader(tc.row + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestConvertAlibabaTruncated(t *testing.T) {
	// A file cut off mid-row leaves a short record: a loud error, not a
	// silent partial import.
	input := "M1,2,j_1,A,Terminated,0,10,100,0.5\nM2_1,3,j_1,A,Termi"
	if _, _, err := ConvertAlibaba(strings.NewReader(input)); err == nil {
		t.Fatal("truncated file converted without error")
	}
}

const googleSample = `{"time":"0","type":0,"collection_id":"1001","resource_request":{"cpus":0.03125,"memory":0.01},"instances":4}
{"time":"60000000","type":"FINISH","collection_id":1001}
{"time":"10000000","type":0,"collection_id":"1002","resource_request":{"cpus":0.5,"memory":0.5}}
{"time":"15000000","type":5,"collection_id":"1002"}
{"time":"20000000","type":3,"collection_id":"1002"}
{"time":"30000000","type":0,"collection_id":"1003","resource_request":{"cpus":0.1,"memory":0.1}}
`

func TestConvertGoogle(t *testing.T) {
	tr, stats, err := ConvertGoogle(strings.NewReader(googleSample))
	if err != nil {
		t.Fatalf("ConvertGoogle: %v", err)
	}
	// 1001 finishes, 1002 fails (terminal), 1003 is truncated-open; the
	// stray SCHEDULE for the already-closed 1002 is skipped.
	if stats.AdHoc != 3 || stats.DefaultedDurations != 1 || stats.SkippedRows != 1 {
		t.Fatalf("stats = %+v, want 3 ad-hoc, 1 defaulted, 1 skipped", stats)
	}
	_, adhoc, err := tr.ToWorkload()
	if err != nil {
		t.Fatalf("converted trace does not round-trip: %v", err)
	}
	byID := map[string]int{}
	for i, a := range adhoc {
		byID[a.ID] = i
	}
	a := adhoc[byID["g-1001"]]
	// 0.03125 NCU * 64 = 2 vcores; 60s duration; 4 instances.
	if a.Tasks != 4 || a.TaskDemand.Get(resource.VCores) != 2 || a.TaskDuration.Seconds() != 60 {
		t.Fatalf("g-1001 = %+v", a)
	}
	// Truncated collection got the default duration.
	if d := adhoc[byID["g-1003"]].TaskDuration.Seconds(); d != 300 {
		t.Fatalf("g-1003 duration = %vs, want default 300s", d)
	}
}

func TestConvertGoogleMalformed(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"garbage", "not json", "line 1"},
		{"missing id", `{"time":"0","type":0}`, "collection_id"},
		{"negative time", `{"time":"-5","type":0,"collection_id":"1"}`, "negative time"},
		{"bad type", `{"time":"0","type":"LAUNCH","collection_id":"1"}`, "unknown event type"},
		{"bad time", `{"time":"soon","type":0,"collection_id":"1"}`, "line 1"},
		{"id not UTF-8", "{\"time\":\"0\",\"type\":0,\"collection_id\":\"\xff\"}", "UTF-8"},
		// A figure int64 cannot hold once scaled used to become 1 vcore or
		// 1 MB without an error.
		{"huge cpus", `{"time":"0","type":0,"collection_id":"1","resource_request":{"cpus":1e300,"memory":0.1}}`, "line 1: cpus 1e+300"},
		{"huge memory", `{"time":"0","type":0,"collection_id":"1","resource_request":{"cpus":0.1,"memory":1e300}}`, "line 1: memory 1e+300"},
		// A submit time past the largest second count a trace holds.
		{"submit out of range", `{"time":"9223372036854775807","type":0,"collection_id":"1"}`, "submit_sec"},
	}
	for _, tc := range cases {
		_, _, err := ConvertGoogle(strings.NewReader(tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Finish before submit: out-of-order timestamps are an error.
	input := `{"time":"50000000","type":0,"collection_id":"1"}` + "\n" +
		`{"time":"10000000","type":6,"collection_id":"1"}` + "\n"
	if _, _, err := ConvertGoogle(strings.NewReader(input)); err == nil ||
		!strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("out-of-order: err = %v", err)
	}
}

// TestConvertersDeterministic: two conversions of the same input are
// byte-identical documents.
func TestConvertersDeterministic(t *testing.T) {
	render := func() string {
		tr, _, err := ConvertGoogle(strings.NewReader(googleSample))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tr.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render() != render() {
		t.Fatal("google conversion is not deterministic")
	}
}

// TestConvertersKeepIDsUnique: a repeated name gets the first #n suffix
// not in use, so no document has two workflows or two ad-hoc jobs of one
// ID — sim.Run refuses such a trace. Google used to emit a collection
// submitted again after its terminal event twice as g-1, and Alibaba's
// second j to collide with a job literally named j#2.
func TestConvertersKeepIDsUnique(t *testing.T) {
	wf := func(job string, at int) string {
		return fmt.Sprintf("M1,1,%s,A,Terminated,%d,%d,100,0.1\nM2_1,1,%[1]s,A,Terminated,%[3]d,%d,100,0.1\n", job, at, at+10, at+20)
	}
	for _, tc := range []struct {
		name, input string
		want        []string
	}{
		{"recurrence after a literal j#2", wf("j", 0) + wf("j#2", 100) + wf("j", 200), []string{"j", "j#2", "j#3"}},
		{"literal j#2 after a recurrence", wf("j", 0) + wf("x", 100) + wf("j", 200) + wf("j#2", 300), []string{"j", "x", "j#2", "j#2#2"}},
	} {
		tr, _, err := ConvertAlibaba(strings.NewReader(tc.input))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, w := range tr.Workflows {
			got = append(got, w.ID)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: workflow IDs %v, want %v", tc.name, got, tc.want)
		}
	}

	submit := func(at int) string {
		return fmt.Sprintf(`{"time":"%d","type":0,"collection_id":"1"}`+"\n", at*1_000_000)
	}
	finish := func(at int) string {
		return fmt.Sprintf(`{"time":"%d","type":6,"collection_id":"1"}`+"\n", at*1_000_000)
	}
	input := submit(0) + finish(10) + submit(20) + finish(30) + submit(40)
	tr, _, err := ConvertGoogle(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range tr.AdHoc {
		got = append(got, a.ID)
	}
	if want := []string{"g-1", "g-1#2", "g-1#3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ad-hoc IDs %v, want %v", got, want)
	}
}

// checkConverted holds a conversion that returned no error to what every
// converter promises: ToWorkload accepts the document, its workflow IDs
// and its ad-hoc IDs are unique, and Write then Read gives it back equal.
func checkConverted(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if _, _, err := tr.ToWorkload(); err != nil {
		t.Fatalf("ToWorkload refuses a converted document: %v", err)
	}
	wfIDs, ahIDs := make(map[string]bool), make(map[string]bool)
	for _, w := range tr.Workflows {
		if wfIDs[w.ID] {
			t.Fatalf("two workflows %q", w.ID)
		}
		wfIDs[w.ID] = true
	}
	for _, a := range tr.AdHoc {
		if ahIDs[a.ID] {
			t.Fatalf("two ad-hoc jobs %q", a.ID)
		}
		ahIDs[a.ID] = true
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("Read refuses a converted document: %v", err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("a converted document changes through Write and Read:\n%+v\n%+v", tr, back)
	}
}

func FuzzConvertAlibaba(f *testing.F) {
	f.Add(alibabaSample)
	f.Add("M1,2,j_1,A,Terminated,0,10,100,0.5\n")
	f.Add("M1,2,j_1,A,Terminated,100,50,100,0.1\n")
	f.Add(",,,,,,,,\n")
	f.Add("M1,2,j_1,A,Terminated,0,10,NaN,1e300\n")
	f.Add("M1,1,j,A,Terminated,0,10,100,0.1\nM2_1,1,j,A,Terminated,10,20,100,0.1\n" +
		"M1,1,x,A,Terminated,0,10,100,0.1\nM1,1,j,A,Terminated,30,40,100,0.1\nM2_1,1,j,A,Terminated,40,50,100,0.1\n" +
		"M1,1,j#2,A,Terminated,50,60,100,0.1\nM2_1,1,j#2,A,Terminated,60,70,100,0.1\n")
	f.Add("M1,1,j,A,Terminated,0,10,100,0.1\nM2_1,1,j,A,Terminated,10,9223372036854775000,100,0.1\n")
	f.Fuzz(func(t *testing.T, input string) {
		if tr, _, err := ConvertAlibaba(strings.NewReader(input)); err == nil {
			checkConverted(t, tr)
		}
	})
}

func FuzzConvertGoogle(f *testing.F) {
	f.Add(googleSample)
	f.Add(`{"time":"0","type":0,"collection_id":"1"}` + "\n")
	f.Add("{\n")
	f.Add(`{"time":"0","type":0,"collection_id":"1","resource_request":{"cpus":1e300,"memory":1e300}}` + "\n")
	f.Add(`{"time":"0","type":0,"collection_id":"1"}` + "\n" + `{"time":"1","type":6,"collection_id":"1"}` + "\n" +
		`{"time":"2","type":0,"collection_id":"1"}` + "\n" + `{"time":"3","type":6,"collection_id":"1"}` + "\n")
	f.Fuzz(func(t *testing.T, input string) {
		if tr, _, err := ConvertGoogle(strings.NewReader(input)); err == nil {
			checkConverted(t, tr)
		}
	})
}
