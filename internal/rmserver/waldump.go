package rmserver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"flowtime/internal/rmstate"
	"flowtime/internal/store"
)

// DumpWAL prints every record of the WAL segments in a state directory
// to out, one JSON object per record per line, oldest segment first, in
// the record structs' json tags. It is what keeps the journal readable
// now that its on-disk form is binary (rmstate). A
// tick record is printed with an "advance" flag the stored form does not
// carry: false marks the grants a heartbeat dispatched (Server.Heartbeat),
// which reuse the tick record without moving the slot.
//
// Strictly read-only: the segments are read, never opened for writing,
// and the store is not opened (that would truncate a torn tail and drop
// stale generations). A torn or corrupt tail is left as it is; its
// offset, and each segment's record count, go to diag. A record that
// passes its CRC but does not decode stops the dump with an error.
func DumpWAL(dir string, out, diag io.Writer) error {
	segments, err := store.WALSegments(dir)
	if err != nil {
		return err
	}
	var codec rmstate.Codec
	slot := int64(-1) // the newest slot a tick or confirm record so far has named
	for _, path := range segments {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		payloads, good, tail := store.DecodeAll(raw)
		for i, payload := range payloads {
			rec, err := codec.Decode(payload)
			if err != nil {
				return fmt.Errorf("%s: record %d/%d: %w", path, i+1, len(payloads), err)
			}
			line, err := json.Marshal(dumpForm(&rec, slot))
			if err != nil {
				return fmt.Errorf("%s: record %d/%d: %w", path, i+1, len(payloads), err)
			}
			if rec.Tick != nil {
				slot = max(slot, rec.Tick.Slot)
			} else if rec.Confirm != nil {
				slot = max(slot, rec.Confirm.Slot)
			}
			if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
				return err
			}
		}
		fmt.Fprintf(diag, "%s: %d records, %d bytes\n", path, len(payloads), good)
		if tail != nil {
			fmt.Fprintf(diag, "%s: tail not decoded from offset %d (%d bytes left in place): %v\n", path, good, len(raw)-good, tail)
		}
	}
	return nil
}

// dumpForm is rec as DumpWAL prints it: itself, except that a tick record
// says whether it advanced the slot past prev, the newest slot a tick or
// confirm record before it named. A heartbeat's grant record directly
// follows its own confirm record, which names the current slot, and a
// real tick names a slot no earlier record has: the flag is exact.
func dumpForm(rec *rmstate.Record, prev int64) any {
	if rec.Tick == nil {
		return rec
	}
	type dumpTick struct {
		Advance bool `json:"advance"`
		*rmstate.RecTick
	}
	return struct {
		Tick dumpTick `json:"tick"`
	}{dumpTick{Advance: rec.Tick.Slot > prev, RecTick: rec.Tick}}
}
