package plan

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"flowtime/internal/resource"
)

// ErrStaleBase is returned (wrapped) by Apply when a diff's BaseRev does
// not match the base plan's revision. A stale diff is refused loudly and
// never partially applied; callers that own the live plan react by
// rebasing on a full plan snapshot from the planner.
var ErrStaleBase = errors.New("plan: diff base revision does not match live plan")

// SlotSet sets one job's allocation at one absolute slot.
type SlotSet struct {
	Slot  int64           `json:"slot"`
	Alloc resource.Vector `json:"alloc"`
}

// JobUpdate adds a job or updates an existing one. For an existing job
// the base allocation is first rebased into the diff's [From, From+NSlots)
// range (slots that fall outside are truncated, new slots start empty),
// then Set is applied on top. Set entries must be sorted by slot with no
// duplicates — a duplicate is an overlapping op and refused.
type JobUpdate struct {
	ID     string    `json:"id"`
	Add    bool      `json:"add,omitempty"`
	Window Window    `json:"window"`
	Set    []SlotSet `json:"set,omitempty"`
}

// Diff is one revision step of the live plan: BaseRev fences the plan it
// was computed against, NewRev = BaseRev+1 is the revision Apply
// produces. From/NSlots re-anchor the plan (replans advance the plan
// window); jobs absent from both Remove and Update carry over with their
// base allocation rebased into the new range.
type Diff struct {
	BaseRev int64       `json:"base_rev"`
	NewRev  int64       `json:"new_rev"`
	From    int64       `json:"from"`
	NSlots  int64       `json:"n_slots"`
	Remove  []string    `json:"remove,omitempty"`
	Update  []JobUpdate `json:"update,omitempty"`
}

// Validate checks the diff's structural invariants without reference to
// any base plan: revision step of exactly one, non-negative anchor and
// length with the length within MaxSlots (so Apply's NSlots-sized tables
// are bounded), Remove and Update sorted with no duplicates and no overlap
// between them, windows valid, slot sets sorted, in range, unique, and
// non-negative.
func (d *Diff) Validate() error {
	if d.BaseRev < 0 || d.BaseRev == math.MaxInt64 {
		return fmt.Errorf("plan: diff base revision %d negative or without a successor", d.BaseRev)
	}
	if d.NewRev != d.BaseRev+1 {
		return fmt.Errorf("plan: diff revision step %d -> %d is not +1", d.BaseRev, d.NewRev)
	}
	if err := checkRange(d.From, d.NSlots); err != nil {
		return fmt.Errorf("plan: diff %w", err)
	}
	for i, id := range d.Remove {
		if id == "" {
			return fmt.Errorf("plan: diff remove[%d] empty job id", i)
		}
		if i > 0 && d.Remove[i-1] >= id {
			return fmt.Errorf("plan: diff remove list not strictly sorted at %q", id)
		}
	}
	removed := make(map[string]bool, len(d.Remove))
	for _, id := range d.Remove {
		removed[id] = true
	}
	for i, u := range d.Update {
		if u.ID == "" {
			return fmt.Errorf("plan: diff update[%d] empty job id", i)
		}
		if i > 0 && d.Update[i-1].ID >= u.ID {
			return fmt.Errorf("plan: diff update list not strictly sorted at %q", u.ID)
		}
		if removed[u.ID] {
			return fmt.Errorf("plan: job %q both removed and updated", u.ID)
		}
		if !u.Window.Valid() {
			return fmt.Errorf("plan: diff update %q window [%d, %d) invalid", u.ID, u.Window.Rel, u.Window.Dl)
		}
		for k, s := range u.Set {
			if s.Slot < d.From || s.Slot >= d.From+d.NSlots {
				return fmt.Errorf("plan: diff update %q sets slot %d outside plan range [%d, %d)",
					u.ID, s.Slot, d.From, d.From+d.NSlots)
			}
			if k > 0 && u.Set[k-1].Slot >= s.Slot {
				return fmt.Errorf("plan: diff update %q has overlapping slot ops at slot %d", u.ID, s.Slot)
			}
			if s.Alloc.AnyNegative() {
				return fmt.Errorf("plan: diff update %q negative allocation %v at slot %d", u.ID, s.Alloc, s.Slot)
			}
		}
	}
	return nil
}

// rebaseAlloc maps a job's per-slot allocation from one (from, n) range
// to another, truncating slots that fall outside the target range and
// zero-filling slots the source range did not cover.
func rebaseAlloc(alloc []resource.Vector, oldFrom, newFrom, n int64) []resource.Vector {
	out := make([]resource.Vector, n)
	for off := range out {
		abs := newFrom + int64(off)
		src := abs - oldFrom
		if src >= 0 && src < int64(len(alloc)) {
			out[off] = alloc[src]
		}
	}
	return out
}

// Apply transactionally produces the successor plan. The base plan is
// never mutated: on any error — stale base revision, structurally
// invalid diff, update referencing the wrong job state, or a result
// that fails plan validation — the caller's plan is exactly as before
// and the error says why. On success the returned plan has revision
// d.NewRev and validates.
func Apply(base *Plan, d *Diff) (*Plan, error) {
	if base == nil {
		return nil, fmt.Errorf("plan: apply on nil base")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.BaseRev != base.Rev {
		return nil, fmt.Errorf("%w: diff base %d, live %d", ErrStaleBase, d.BaseRev, base.Rev)
	}
	next := &Plan{
		Rev:    d.NewRev,
		From:   d.From,
		NSlots: d.NSlots,
		Jobs:   make(map[string]Job, len(base.Jobs)+len(d.Update)),
	}
	// Carry over base jobs that are neither removed nor updated,
	// rebasing their allocations into the new plan range.
	removed := make(map[string]bool, len(d.Remove))
	for _, id := range d.Remove {
		if _, ok := base.Jobs[id]; !ok {
			return nil, fmt.Errorf("plan: diff removes unknown job %q", id)
		}
		removed[id] = true
	}
	updated := make(map[string]bool, len(d.Update))
	for _, u := range d.Update {
		updated[u.ID] = true
	}
	for id, j := range base.Jobs {
		if removed[id] || updated[id] {
			continue
		}
		next.Jobs[id] = Job{
			Window: j.Window,
			Alloc:  rebaseAlloc(j.Alloc, base.From, d.From, d.NSlots),
		}
	}
	for _, u := range d.Update {
		var alloc []resource.Vector
		if u.Add {
			if _, ok := base.Jobs[u.ID]; ok {
				return nil, fmt.Errorf("plan: diff adds job %q that already exists", u.ID)
			}
			alloc = make([]resource.Vector, d.NSlots)
		} else {
			j, ok := base.Jobs[u.ID]
			if !ok {
				return nil, fmt.Errorf("plan: diff updates unknown job %q (not marked add)", u.ID)
			}
			alloc = rebaseAlloc(j.Alloc, base.From, d.From, d.NSlots)
		}
		for _, s := range u.Set {
			alloc[s.Slot-d.From] = s.Alloc
		}
		next.Jobs[u.ID] = Job{Window: u.Window, Alloc: alloc}
	}
	if err := next.Validate(); err != nil {
		return nil, fmt.Errorf("plan: diff application produced invalid plan: %w", err)
	}
	return next, nil
}

// Compute derives the minimal diff that transforms base into next. The
// inverse of Apply: Apply(base, Compute(base, next)) reproduces next
// exactly (content and revision). next.Rev must be base.Rev+1.
func Compute(base, next *Plan) *Diff {
	d := &Diff{
		BaseRev: base.Rev,
		NewRev:  next.Rev,
		From:    next.From,
		NSlots:  next.NSlots,
	}
	for _, id := range base.JobIDs() {
		if _, ok := next.Jobs[id]; !ok {
			d.Remove = append(d.Remove, id)
		}
	}
	ids := next.JobIDs()
	for _, id := range ids {
		nj := next.Jobs[id]
		bj, existed := base.Jobs[id]
		u := JobUpdate{ID: id, Window: nj.Window, Add: !existed}
		if existed {
			// Diff against the base allocation rebased into the new
			// range — exactly what Apply starts from.
			rebased := rebaseAlloc(bj.Alloc, base.From, next.From, next.NSlots)
			for off := range nj.Alloc {
				if nj.Alloc[off] != rebased[off] {
					u.Set = append(u.Set, SlotSet{Slot: next.From + int64(off), Alloc: nj.Alloc[off]})
				}
			}
			if len(u.Set) == 0 && bj.Window == nj.Window {
				continue // untouched job: carried over implicitly
			}
		} else {
			for off, g := range nj.Alloc {
				if !g.IsZero() {
					u.Set = append(u.Set, SlotSet{Slot: next.From + int64(off), Alloc: g})
				}
			}
		}
		d.Update = append(d.Update, u)
	}
	sort.Slice(d.Update, func(i, j int) bool { return d.Update[i].ID < d.Update[j].ID })
	return d
}

// Stats summarizes a diff for telemetry.
func (d *Diff) Stats() (removed, updated, added, slotOps int) {
	removed = len(d.Remove)
	for _, u := range d.Update {
		if u.Add {
			added++
		} else {
			updated++
		}
		slotOps += len(u.Set)
	}
	return
}
