// What both external-trace converters share: the mapping of the traces'
// units onto the native schema, the naming of repeated IDs, and the report
// of a conversion.
package scenario

import (
	"fmt"
	"time"
)

// The mapping of the external traces onto the native schema. The traces
// carry no deadlines and record resources in their own units.
const (
	// deadlineFactor synthesizes a loaded workflow's deadline: submit +
	// deadlineFactor x its observed makespan.
	deadlineFactor = 4
	// cpuPerCore is Alibaba plan_cpu units per vcore (the trace records
	// percent of a core).
	cpuPerCore = 100
	// memUnitMB maps one normalized memory unit to MiB. Alibaba plan_mem and
	// Google memory are fractions of a machine; 100 units are 64 GiB.
	memUnitMB = 655
	// ncuVCores maps one normalized Google CPU unit to vcores: one NCU is
	// the largest machine's core count.
	ncuVCores = 64
	// defaultDur is assumed for a collection whose terminal event the
	// subset truncated away.
	defaultDur = 5 * time.Minute
)

// wholeUnits converts a resource figure, already scaled to vcores or MiB,
// to an int64. A figure that is not finite, or that an int64 cannot hold,
// is an error naming the field: converting it would give an
// implementation-defined number.
func wholeUnits(field string, raw, scaled float64) (int64, error) {
	if !(scaled >= 0 && scaled < 1<<63) {
		return 0, fmt.Errorf("%s %g does not scale to a whole number an int64 holds", field, raw)
	}
	return int64(scaled), nil
}

// ids hands out the record IDs of one converted document, unique across
// it. A name in use gets the recurrence suffix #n, with the first n from 2
// up whose name is free. A non-zero entry marks a name in use and is the
// last n tried for it as a base name (1 for the name alone).
type ids map[string]int

func (u ids) take(base string) string {
	name := base
	for u[name] != 0 {
		u[base]++
		name = fmt.Sprintf("%s#%d", base, u[base])
	}
	u[name] = 1
	return name
}

// LoadStats reports what a conversion did.
type LoadStats struct {
	// Rows is how many input rows/lines were consumed.
	Rows int
	// Workflows/Jobs/AdHoc count emitted records.
	Workflows, Jobs, AdHoc int
	// SkippedRows counts rows dropped for benign reasons (non-terminal
	// status, zero duration); malformed rows are errors, not skips.
	SkippedRows int
	// DefaultedDurations counts records that fell back to defaultDur
	// because their completion was truncated away.
	DefaultedDurations int
}

func (s LoadStats) String() string {
	return fmt.Sprintf("rows=%d workflows=%d jobs=%d adhoc=%d skipped=%d defaulted=%d",
		s.Rows, s.Workflows, s.Jobs, s.AdHoc, s.SkippedRows, s.DefaultedDurations)
}

// TraceFormats lists the external formats the converters understand.
func TraceFormats() []string { return []string{"native", "alibaba", "google"} }
