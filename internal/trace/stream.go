// Streaming trace output. Multi-day external traces (Alibaba 2018, Google
// 2019 subsets) convert to millions of records; the StreamWriter emits a
// valid schema-v2 document record by record, so a converter never
// materializes the whole document in memory. Every consumer reads the
// document back with Read.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// StreamWriter incrementally writes a trace document. Records must be
// appended in schema order: all workflows, then all ad-hoc jobs; Close
// finishes the document. The writer validates each record through the
// workload types before emitting it, so a streamed document is as
// trustworthy as one written by Trace.Write.
type StreamWriter struct {
	w         *bufio.Writer
	phase     int // 0 = workflows open, 1 = adhoc open, 2 = closed
	nWf, nAh  int
	headerErr error
}

// NewStreamWriter starts a schema-v2 document with the given provenance
// (meta may be nil).
func NewStreamWriter(w io.Writer, meta *Meta) *StreamWriter {
	sw := &StreamWriter{w: bufio.NewWriter(w)}
	sw.headerErr = sw.writeHeader(meta)
	return sw
}

func (sw *StreamWriter) writeHeader(meta *Meta) error {
	if _, err := fmt.Fprintf(sw.w, "{\n  \"version\": %d,\n", FormatVersion); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	if meta != nil {
		data, err := json.Marshal(meta)
		if err != nil {
			return fmt.Errorf("trace: stream: meta: %w", err)
		}
		if _, err := fmt.Fprintf(sw.w, "  \"meta\": %s,\n", data); err != nil {
			return fmt.Errorf("trace: stream: %w", err)
		}
	}
	if _, err := sw.w.WriteString("  \"workflows\": ["); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	return nil
}

func (sw *StreamWriter) writeRecord(n int, rec any) error {
	sep := ",\n    "
	if n == 0 {
		sep = "\n    "
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	if _, err := sw.w.WriteString(sep); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	if _, err := sw.w.Write(data); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	return nil
}

// Workflow appends one workflow record. All workflows must be written
// before the first ad-hoc record.
func (sw *StreamWriter) Workflow(rec WorkflowRecord) error {
	if sw.headerErr != nil {
		return sw.headerErr
	}
	if sw.phase != 0 {
		return errors.New("trace: stream: workflow record after ad-hoc records")
	}
	// Validate through the workload types, like Trace.Write's Read-side
	// round-trip does.
	probe := Trace{Version: FormatVersion, Workflows: []WorkflowRecord{rec}}
	if _, _, err := probe.ToWorkload(); err != nil {
		return err
	}
	if err := sw.writeRecord(sw.nWf, rec); err != nil {
		return err
	}
	sw.nWf++
	return nil
}

// AdHoc appends one ad-hoc record.
func (sw *StreamWriter) AdHoc(rec AdHocRecord) error {
	if sw.headerErr != nil {
		return sw.headerErr
	}
	if sw.phase == 2 {
		return errors.New("trace: stream: write after Close")
	}
	if sw.phase == 0 {
		if err := sw.endArray(sw.nWf); err != nil {
			return err
		}
		if _, err := sw.w.WriteString(",\n  \"adhoc\": ["); err != nil {
			return fmt.Errorf("trace: stream: %w", err)
		}
		sw.phase = 1
	}
	probe := Trace{Version: FormatVersion, AdHoc: []AdHocRecord{rec}}
	if _, _, err := probe.ToWorkload(); err != nil {
		return err
	}
	if err := sw.writeRecord(sw.nAh, rec); err != nil {
		return err
	}
	sw.nAh++
	return nil
}

func (sw *StreamWriter) endArray(n int) error {
	s := "]"
	if n > 0 {
		s = "\n  ]"
	}
	if _, err := sw.w.WriteString(s); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	return nil
}

// Close finishes and flushes the document.
func (sw *StreamWriter) Close() error {
	if sw.headerErr != nil {
		return sw.headerErr
	}
	if sw.phase == 2 {
		return nil
	}
	if sw.phase == 0 {
		if err := sw.endArray(sw.nWf); err != nil {
			return err
		}
		if _, err := sw.w.WriteString(",\n  \"adhoc\": ["); err != nil {
			return fmt.Errorf("trace: stream: %w", err)
		}
		sw.nAh = 0
	}
	if err := sw.endArray(sw.nAh); err != nil {
		return err
	}
	if _, err := sw.w.WriteString("\n}\n"); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	sw.phase = 2
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("trace: stream: %w", err)
	}
	return nil
}
