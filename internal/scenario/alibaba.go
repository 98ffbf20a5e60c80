// Alibaba cluster-trace 2018 loader. The batch_task.csv table of the
// public trace (github.com/alibaba/clusterdata, v2018) has one row per
// task:
//
//	task_name,instance_num,job_name,task_type,status,start_time,end_time,plan_cpu,plan_mem
//
// DAG structure is encoded in task_name: "M3_1_2" is task 3 depending on
// tasks 1 and 2; names without that structure ("task_...", "MergeTask")
// are independent. Rows of one job are contiguous in the file, so the
// converter reads one job at a time and turns it into one record:
// single-task DAG-less jobs become ad-hoc records, the rest workflows.
//
// Mapping to the native schema: instance_num -> Tasks, end-start ->
// TaskDurSec, plan_cpu/cpuPerCore (percent of a core) -> DemandVCores,
// plan_mem*memUnitMB (normalized) -> DemandMemMB. Timestamps are kept
// as-is (the public trace records seconds from trace start). Deadlines
// are synthesized at deadlineFactor x the job's observed makespan — the
// trace has no deadlines, and the paper's own production traces motivate
// loose ones (§II-B).
package scenario

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"flowtime/internal/trace"
)

// alibabaRow is one parsed batch_task.csv row.
type alibabaRow struct {
	taskID     int   // parsed from task_name; -1 when unstructured
	deps       []int // parsed parent task IDs
	instances  int
	job        string
	start, end int64
	vcores     int64
	memMB      int64
}

// ConvertAlibaba converts an Alibaba 2018 batch_task.csv into a native
// trace. Malformed rows (wrong field count, non-numeric or out-of-range
// numbers, end before start) abort with an error naming the line, and a
// job no replay would accept aborts with one naming the job; rows with a
// non-terminal status or zero duration are skipped and counted. A job name
// that recurs later in the file gets the suffix #n.
func ConvertAlibaba(r io.Reader) (*trace.Trace, LoadStats, error) {
	var stats LoadStats
	tr := &trace.Trace{Version: trace.FormatVersion, Meta: &trace.Meta{Generator: "import/alibaba"}}

	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 9
	cr.ReuseRecord = true

	var (
		pending    []alibabaRow // rows of the job being buffered
		pendingJob string
		names      = make(ids)
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := addAlibabaJob(tr, names.take(pendingJob), pending)
		pending = pending[:0]
		if err != nil {
			return fmt.Errorf("scenario: alibaba: %w", err)
		}
		return nil
	}

	for line := 1; ; line++ {
		fields, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, stats, fmt.Errorf("scenario: alibaba line %d: %w", line, err)
		}
		stats.Rows++
		row, skip, err := parseAlibabaRow(fields)
		if err != nil {
			return nil, stats, fmt.Errorf("scenario: alibaba line %d: %w", line, err)
		}
		if skip {
			stats.SkippedRows++
			continue
		}
		if row.job != pendingJob {
			if err := flush(); err != nil {
				return nil, stats, err
			}
			pendingJob = row.job
		}
		pending = append(pending, row)
	}
	if err := flush(); err != nil {
		return nil, stats, err
	}
	stats.Workflows, stats.AdHoc = len(tr.Workflows), len(tr.AdHoc)
	for _, wf := range tr.Workflows {
		stats.Jobs += len(wf.Jobs)
	}
	return tr, stats, nil
}

// parseAlibabaRow validates one CSV row. skip=true means the row is
// well-formed but carries no completed work (non-terminal status).
func parseAlibabaRow(fields []string) (alibabaRow, bool, error) {
	var row alibabaRow
	taskName := strings.TrimSpace(fields[0])
	if taskName == "" {
		return row, false, errors.New("empty task_name")
	}
	row.job = strings.TrimSpace(fields[2])
	if row.job == "" {
		return row, false, errors.New("empty job_name")
	}
	if !utf8.ValidString(row.job) {
		return row, false, fmt.Errorf("job_name %q is not valid UTF-8", row.job)
	}
	status := strings.TrimSpace(fields[4])
	if status != "" && !strings.EqualFold(status, "Terminated") {
		return row, true, nil
	}
	var err error
	if row.instances, err = strconv.Atoi(strings.TrimSpace(fields[1])); err != nil {
		return row, false, fmt.Errorf("instance_num %q: %w", fields[1], err)
	}
	if row.instances < 1 {
		row.instances = 1
	}
	if row.start, err = strconv.ParseInt(strings.TrimSpace(fields[5]), 10, 64); err != nil {
		return row, false, fmt.Errorf("start_time %q: %w", fields[5], err)
	}
	if row.end, err = strconv.ParseInt(strings.TrimSpace(fields[6]), 10, 64); err != nil {
		return row, false, fmt.Errorf("end_time %q: %w", fields[6], err)
	}
	if row.start < 0 || row.end < 0 {
		return row, false, fmt.Errorf("negative timestamp (start %d, end %d)", row.start, row.end)
	}
	if row.end < row.start {
		return row, false, fmt.Errorf("out-of-order timestamps: end %d before start %d", row.end, row.start)
	}
	if row.end == 0 || row.end == row.start {
		return row, true, nil // never ran, or zero duration: no schedulable work
	}
	planCPU, err := strconv.ParseFloat(strings.TrimSpace(fields[7]), 64)
	if err != nil {
		return row, false, fmt.Errorf("plan_cpu %q: %w", fields[7], err)
	}
	planMem, err := strconv.ParseFloat(strings.TrimSpace(fields[8]), 64)
	if err != nil {
		return row, false, fmt.Errorf("plan_mem %q: %w", fields[8], err)
	}
	if planCPU < 0 || planMem < 0 {
		return row, false, fmt.Errorf("negative demand (plan_cpu %g, plan_mem %g)", planCPU, planMem)
	}
	if row.vcores, err = wholeUnits("plan_cpu", planCPU, math.Ceil(planCPU/cpuPerCore)); err != nil {
		return row, false, err
	}
	if row.memMB, err = wholeUnits("plan_mem", planMem, math.Ceil(planMem*memUnitMB)); err != nil {
		return row, false, err
	}
	row.taskID, row.deps = parseAlibabaTaskName(taskName)
	return row, false, nil
}

// parseAlibabaTaskName decodes DAG structure from names like "M3_1_2"
// (task 3, parents 1 and 2). Unstructured names return (-1, nil).
func parseAlibabaTaskName(name string) (int, []int) {
	// Strip the leading letters of the first token (task type markers:
	// M, R, J, ...). Names like "task_Xyz" or "MergeTask" have no digits
	// after the letters and stay unstructured.
	parts := strings.Split(name, "_")
	head := parts[0]
	i := 0
	for i < len(head) && (head[i] < '0' || head[i] > '9') {
		i++
	}
	id, err := strconv.Atoi(head[i:])
	if err != nil || i == 0 {
		return -1, nil
	}
	var deps []int
	for _, p := range parts[1:] {
		d, err := strconv.Atoi(p)
		if err != nil {
			return -1, nil // mixed structure: treat as unstructured
		}
		deps = append(deps, d)
	}
	return id, deps
}

// addAlibabaJob converts one buffered job's rows into a record of tr: an
// ad-hoc record for a single-task DAG-less job, a workflow otherwise. A
// record ToWorkload would refuse is an error instead.
func addAlibabaJob(tr *trace.Trace, name string, rows []alibabaRow) error {
	submit := rows[0].start
	var latest int64
	for _, r := range rows {
		if r.start < submit {
			submit = r.start
		}
		if r.end > latest {
			latest = r.end
		}
	}
	makespan := max(1, latest-submit)

	if len(rows) == 1 && len(rows[0].deps) == 0 {
		r := rows[0]
		ah := trace.AdHocRecord{
			ID:           name,
			SubmitSec:    submit,
			Tasks:        r.instances,
			TaskDurSec:   max(1, r.end-r.start),
			DemandVCores: max(1, r.vcores),
			DemandMemMB:  max(1, r.memMB),
		}
		if _, err := ah.ToAdHoc(); err != nil {
			return err
		}
		tr.AdHoc = append(tr.AdHoc, ah)
		return nil
	}

	if makespan > (math.MaxInt64-submit)/deadlineFactor {
		return fmt.Errorf("job %s: a deadline %d x its makespan of %d s past %d s overflows an int64", name, deadlineFactor, makespan, submit)
	}
	wf := trace.WorkflowRecord{ID: name, SubmitSec: submit, DeadlineSec: submit + deadlineFactor*makespan}
	idToIdx := make(map[int]int, len(rows))
	for i, r := range rows {
		if r.taskID >= 0 {
			if _, dup := idToIdx[r.taskID]; dup {
				return fmt.Errorf("job %s: duplicate task id %d", name, r.taskID)
			}
			idToIdx[r.taskID] = i
		}
		wf.Jobs = append(wf.Jobs, trace.JobRecord{
			Name:         fmt.Sprintf("t%d", i),
			Tasks:        r.instances,
			TaskDurSec:   max(1, r.end-r.start),
			DemandVCores: max(1, r.vcores),
			DemandMemMB:  max(1, r.memMB),
		})
	}
	for i, r := range rows {
		for _, d := range r.deps {
			from, ok := idToIdx[d]
			if !ok {
				continue // parent outside the subset: drop the edge
			}
			if from == i {
				continue
			}
			wf.Deps = append(wf.Deps, [2]int{from, i})
		}
	}
	if _, err := wf.ToWorkflow(); err != nil {
		return err
	}
	tr.Workflows = append(tr.Workflows, wf)
	return nil
}
