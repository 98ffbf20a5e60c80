package plan

import (
	"fmt"

	"flowtime/internal/binenc"
)

// The encoder of a diff, kept only for the whole-path benchmark's traced
// pass (bench/trace.go), which times and sizes one encode per replan under
// core.Config.StreamPlans. Nothing in this module decodes it; it goes with
// that wrapper. The form is binary (internal/binenc: minimal varints,
// length-prefixed strings):
//
//	diffTag
//	BaseRev From NSlots                     NewRev is BaseRev+1, not stored
//	nRemove { id }
//	nUpdate { id  add(0|1)  Rel Dl
//	          nRuns { gap len { alloc[kind]... }*len } }
//
// Each list's IDs are front-coded (binenc.FrontString) against the ID
// before them in the same list — the lists are sorted, so the jobs of one
// workflow, wf0003/SelfJoin-3#3 then wf0003/TeraSort-5#5, spell their
// workflow once. A job's slot ops are stored as runs of consecutive slots:
// the first run's gap counts from the diff's From, a later run's gap is
// the distance past the previous run's end minus one — two adjacent runs
// cannot be spelled, so every slot set has exactly one encoding.

// diffTag opens every encoded diff.
const diffTag = 0x02

// EncodeDiff serializes a diff. The diff is validated first, so an
// invalid diff is never encoded.
func EncodeDiff(d *Diff) ([]byte, error) { return AppendDiff(nil, d) }

// AppendDiff is EncodeDiff into a caller-owned buffer: the encoding is
// appended to dst and the extended slice returned.
func AppendDiff(dst []byte, d *Diff) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return dst, fmt.Errorf("plan: refusing to encode invalid diff: %w", err)
	}
	w := binenc.Writer{Buf: dst}
	w.Byte(diffTag)
	w.Int(d.BaseRev)
	w.Int(d.From)
	w.Int(d.NSlots)
	w.Uint(uint64(len(d.Remove)))
	prev := ""
	for _, id := range d.Remove {
		w.FrontString(prev, id)
		prev = id
	}
	w.Uint(uint64(len(d.Update)))
	prev = ""
	for i := range d.Update {
		u := &d.Update[i]
		w.FrontString(prev, u.ID)
		prev = u.ID
		w.Bool(u.Add)
		w.Int(u.Window.Rel)
		w.Int(u.Window.Dl)
		appendRuns(&w, d.From, u.Set)
	}
	return w.Buf, w.Err()
}

// appendRuns writes a validated (strictly ascending, >= from) slot set as
// maximal runs of consecutive slots.
func appendRuns(w *binenc.Writer, from int64, set []SlotSet) {
	runs := 0
	for i := range set {
		if i == 0 || set[i].Slot != set[i-1].Slot+1 {
			runs++
		}
	}
	w.Uint(uint64(runs))
	end := from // one past the previous run; the first gap counts from `from`
	for i := 0; i < len(set); {
		j := i + 1
		for j < len(set) && set[j].Slot == set[j-1].Slot+1 {
			j++
		}
		gap := set[i].Slot - end
		if i > 0 {
			gap-- // runs are maximal: a later run never starts at `end`
		}
		w.Int(gap)
		w.Uint(uint64(j - i))
		for ; i < j; i++ {
			for _, a := range set[i].Alloc {
				w.Int(a)
			}
		}
		end = set[j-1].Slot + 1
	}
}
