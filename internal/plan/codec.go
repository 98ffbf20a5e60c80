package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"flowtime/internal/binenc"
	"flowtime/internal/resource"
)

// Two codecs live here.
//
// Diffs — one per replan, the bulk of a streamed plan's journal bytes —
// are binary (internal/binenc: minimal varints, length-prefixed strings):
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
// cannot be spelled, so every slot set has exactly one encoding. The
// decoder refuses unknown tags and flag values, non-minimal varints and
// front-coded prefixes, counts the input cannot hold and trailing bytes,
// and every decode ends in Validate: an accepted input re-encodes to
// itself and is safe to hand to Apply (NSlots, the one header field Apply
// sizes tables by, is held to MaxSlots there).
//
// Full plans (snapshots and rebase records, rare and large) stay strict
// JSON: unknown fields and trailing data refused, Validate after decode.
//
// One form of each. Before this one a diff opened with tag 0x01, spelled
// every ID out and carried the planner's θ levels; before that diffs were
// JSON. Full plans carried θ as "theta". Nothing reads those forms: the
// journal that held them is refused whole (internal/rmserver's walcodec.go
// says why that is safe), and DecodeDiff and DecodePlan refuse each by
// name rather than misread it.

// diffTag opens every binary diff; diffTagTheta opened the form before it.
const (
	diffTagTheta = 0x01
	diffTag      = 0x02
)

// EncodeDiff serializes a diff. The diff is validated first so an
// invalid diff can never be journaled.
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

// DecodeDiff deserializes and validates a diff. Malformed, non-canonical
// and structurally invalid encodings are all refused with an error; a
// successfully decoded diff is safe to hand to Apply and re-encodes to
// the bytes it came from.
func DecodeDiff(data []byte) (*Diff, error) {
	r := binenc.NewReader(data)
	switch tag := r.Byte(); {
	case r.Err() != nil || tag == diffTag:
	case tag == diffTagTheta:
		return nil, errors.New("plan: diff decode: a tag 0x01 diff, the form with θ levels and spelled-out IDs that predates front coding, which is no longer read")
	case tag == '{':
		return nil, errors.New("plan: diff decode: a JSON diff, the pre-binary form that is no longer read")
	default:
		return nil, fmt.Errorf("plan: diff decode: unknown format tag %#x", tag)
	}
	d := &Diff{BaseRev: r.Int(), From: r.Int(), NSlots: r.Int()}
	d.NewRev = d.BaseRev + 1 // Validate refuses the one BaseRev this would wrap on
	// A front-coded ID is at least a prefix length and a suffix length.
	if n := r.Count(2); n > 0 {
		d.Remove = make([]string, n)
		prev := ""
		for i := range d.Remove {
			d.Remove[i] = r.FrontString(prev)
			prev = d.Remove[i]
		}
	}
	// An update is at least its ID, the add flag, two window varints and a
	// run count.
	if n := r.Count(6); n > 0 {
		d.Update = make([]JobUpdate, n)
		prev := ""
		for i := range d.Update {
			u := &d.Update[i]
			u.ID = r.FrontString(prev)
			prev = u.ID
			u.Add = r.Bool()
			u.Window = Window{Rel: r.Int(), Dl: r.Int()}
			u.Set = readRuns(&r, d.From)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("plan: diff decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// readRuns is appendRuns' inverse. Slot arithmetic that would overflow
// is refused here; order and range are Validate's to check.
func readRuns(r *binenc.Reader, from int64) []SlotSet {
	var set []SlotSet
	end := from
	// A run is a gap, a length and at least one allocation vector.
	for i, runs := 0, r.Count(2+resource.NumKinds); i < runs; i++ {
		gap := r.Int()
		if i > 0 {
			gap++
		}
		n := r.Count(resource.NumKinds)
		if n == 0 && r.Err() == nil {
			r.Fail(errors.New("empty slot run"))
		}
		if gap < 0 || end+gap < end || end+gap+int64(n) < end {
			r.Fail(errors.New("slot run overflows int64"))
		}
		if r.Err() != nil {
			return nil
		}
		slot := end + gap
		for k := 0; k < n; k++ {
			s := SlotSet{Slot: slot + int64(k)}
			for ki := range s.Alloc {
				s.Alloc[ki] = r.Int()
			}
			set = append(set, s)
		}
		end = slot + int64(n)
	}
	return set
}

// decodeStrictJSON decodes exactly one JSON value into v: unknown fields
// are refused, and so is anything but white space after the value.
// (json.Decoder.More cannot make the second check — it reports false for
// a stray '}' or ']'.)
func decodeStrictJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the value")
	}
	return nil
}

// EncodePlan serializes a full plan (used for snapshots and rebase
// records). Validated first, same as diffs.
func EncodePlan(p *Plan) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: refusing to encode invalid plan: %w", err)
	}
	return json.Marshal(p)
}

// DecodePlan deserializes and validates a full plan. A plan that carries
// "theta", the planner's levels full plans held before the plan became
// integers only, is refused by name.
func DecodePlan(data []byte) (*Plan, error) {
	var p struct {
		Plan
		Theta json.RawMessage `json:"theta"`
	}
	if err := decodeStrictJSON(data, &p); err != nil {
		return nil, fmt.Errorf("plan: plan decode: %w", err)
	}
	if p.Theta != nil {
		return nil, errors.New(`plan: plan decode: a plan with θ levels ("theta"), the form that predates integer-only plans, which is no longer read`)
	}
	if err := p.Plan.Validate(); err != nil {
		return nil, err
	}
	// Explicit empties become the omitted form so decode∘encode is the
	// identity.
	if len(p.Jobs) == 0 {
		p.Jobs = nil
	}
	return &p.Plan, nil
}
