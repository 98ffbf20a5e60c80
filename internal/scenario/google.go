// Google ClusterData 2019 loader. The public trace (Wilkes et al.,
// "Google cluster-usage traces v3") ships as JSONL tables; the
// collection_events table has one line per collection lifecycle event:
//
//	{"time":"112500000000","type":0,"collection_id":"376535491110",
//	 "priority":103,"resource_request":{"cpus":0.015,"memory":0.0038}, ...}
//
// Types follow the v3 schema: 0=SUBMIT .. 6=FINISH (string spellings are
// accepted too). The converter pairs each collection's SUBMIT with its
// terminal event to recover the duration, and emits one ad-hoc record per
// collection (the public trace exposes no intra-collection DAG).
// Resources are normalized compute units; ncuVCores and memUnitMB map them
// to vcores/MiB. Times are microseconds from trace start and convert to
// seconds.
package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"flowtime/internal/trace"
)

// googleEvent is one collection_events line; flexible types absorb the
// string-vs-number variation across public dumps.
type googleEvent struct {
	Time         flexInt64  `json:"time"`
	Type         flexType   `json:"type"`
	CollectionID flexString `json:"collection_id"`
	Priority     int64      `json:"priority"`
	Request      *struct {
		CPUs   float64 `json:"cpus"`
		Memory float64 `json:"memory"`
	} `json:"resource_request"`
	Instances int `json:"instances"`
}

// flexInt64 decodes both 123 and "123".
type flexInt64 int64

// UnmarshalJSON implements json.Unmarshaler.
func (f *flexInt64) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	if s == "" || s == "null" {
		*f = 0
		return nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("number %q: %w", s, err)
	}
	*f = flexInt64(v)
	return nil
}

// flexString decodes both "id" and 123.
type flexString string

// UnmarshalJSON implements json.Unmarshaler.
func (f *flexString) UnmarshalJSON(b []byte) error {
	*f = flexString(strings.Trim(string(b), `"`))
	return nil
}

// flexType decodes the event type as a number or a v3 spelling.
type flexType int

// Google v3 collection event types (the ones the converter acts on).
const (
	googleSubmit = 0
	googleFinish = 6
	googleFail   = 5
	googleKill   = 7
	googleLost   = 8
)

// UnmarshalJSON implements json.Unmarshaler.
func (f *flexType) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	if v, err := strconv.Atoi(s); err == nil {
		*f = flexType(v)
		return nil
	}
	switch strings.ToUpper(s) {
	case "SUBMIT":
		*f = googleSubmit
	case "QUEUE":
		*f = 1
	case "ENABLE":
		*f = 2
	case "SCHEDULE":
		*f = 3
	case "EVICT":
		*f = 4
	case "FAIL":
		*f = googleFail
	case "FINISH":
		*f = googleFinish
	case "KILL":
		*f = googleKill
	case "LOST":
		*f = googleLost
	default:
		return fmt.Errorf("unknown event type %q", s)
	}
	return nil
}

// openCollection is the per-collection state between SUBMIT and the
// terminal event.
type openCollection struct {
	submitSec int64
	vcores    int64
	memMB     int64
	tasks     int
}

// ConvertGoogle converts a Google ClusterData 2019 collection_events JSONL
// subset into a native trace of ad-hoc records. Malformed lines, and
// collections no replay would accept, abort with an error naming the line;
// collections whose terminal event was truncated away get defaultDur and
// are counted in DefaultedDurations. A collection submitted again after
// its terminal event gets the suffix #n.
func ConvertGoogle(r io.Reader) (*trace.Trace, LoadStats, error) {
	var stats LoadStats
	tr := &trace.Trace{Version: trace.FormatVersion, Meta: &trace.Meta{Generator: "import/google"}}

	open := make(map[string]*openCollection)
	names := make(ids)
	emit := func(id string, oc *openCollection, durSec int64) error {
		ah := trace.AdHocRecord{
			ID:           names.take("g-" + id),
			SubmitSec:    oc.submitSec,
			Tasks:        oc.tasks,
			TaskDurSec:   max(1, durSec),
			DemandVCores: oc.vcores,
			DemandMemMB:  oc.memMB,
		}
		if _, err := ah.ToAdHoc(); err != nil {
			return err
		}
		tr.AdHoc = append(tr.AdHoc, ah)
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		stats.Rows++
		var ev googleEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, stats, fmt.Errorf("scenario: google line %d: %w", line, err)
		}
		if ev.CollectionID == "" {
			return nil, stats, fmt.Errorf("scenario: google line %d: missing collection_id", line)
		}
		if !utf8.ValidString(string(ev.CollectionID)) {
			return nil, stats, fmt.Errorf("scenario: google line %d: collection_id %q is not valid UTF-8", line, ev.CollectionID)
		}
		if ev.Time < 0 {
			return nil, stats, fmt.Errorf("scenario: google line %d: negative time %d", line, ev.Time)
		}
		id := string(ev.CollectionID)
		sec := int64(ev.Time) / 1_000_000
		switch int(ev.Type) {
		case googleSubmit:
			oc := &openCollection{submitSec: sec, vcores: 1, memMB: 1, tasks: 1}
			if req := ev.Request; req != nil {
				if req.CPUs < 0 || req.Memory < 0 {
					return nil, stats, fmt.Errorf("scenario: google line %d: negative resource request", line)
				}
				vcores, err := wholeUnits("cpus", req.CPUs, math.Round(req.CPUs*ncuVCores))
				if err != nil {
					return nil, stats, fmt.Errorf("scenario: google line %d: %w", line, err)
				}
				memMB, err := wholeUnits("memory", req.Memory, math.Round(req.Memory*memUnitMB*100))
				if err != nil {
					return nil, stats, fmt.Errorf("scenario: google line %d: %w", line, err)
				}
				oc.vcores, oc.memMB = max(1, vcores), max(1, memMB)
			}
			if ev.Instances > 0 {
				oc.tasks = ev.Instances
			}
			open[id] = oc
		case googleFinish, googleFail, googleKill, googleLost:
			oc, ok := open[id]
			if !ok {
				stats.SkippedRows++ // terminal event for a collection submitted before the subset
				continue
			}
			if sec < oc.submitSec {
				return nil, stats, fmt.Errorf("scenario: google line %d: collection %s finishes at %ds before submit %ds (out-of-order timestamps)",
					line, id, sec, oc.submitSec)
			}
			delete(open, id)
			if err := emit(id, oc, sec-oc.submitSec); err != nil {
				return nil, stats, fmt.Errorf("scenario: google line %d: %w", line, err)
			}
		default:
			stats.SkippedRows++ // QUEUE/ENABLE/SCHEDULE/EVICT carry no new sizing
		}
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("scenario: google: %w", err)
	}
	// Collections whose terminal event was truncated away: emit with the
	// default duration, in deterministic ID order.
	left := make([]string, 0, len(open))
	for id := range open {
		left = append(left, id)
	}
	sort.Strings(left)
	for _, id := range left {
		if err := emit(id, open[id], int64(defaultDur/time.Second)); err != nil {
			return nil, stats, fmt.Errorf("scenario: google: %w", err)
		}
		stats.DefaultedDurations++
	}
	stats.AdHoc = len(tr.AdHoc)
	return tr, stats, nil
}
