package plan

import (
	"fmt"
	"math"

	"flowtime/internal/resource"
)

// SlotSet sets one job's allocation at one absolute slot.
type SlotSet struct {
	Slot  int64           `json:"slot"`
	Alloc resource.Vector `json:"alloc"`
}

// JobUpdate adds a job or updates an existing one. For an existing job
// Set holds the slots whose allocation differs from the base allocation
// rebased into the diff's [From, From+NSlots) range (slots that fall
// outside are truncated, new slots start empty). Set entries are sorted by
// slot with no duplicates — a duplicate is an overlapping op and refused.
type JobUpdate struct {
	ID     string    `json:"id"`
	Add    bool      `json:"add,omitempty"`
	Window Window    `json:"window"`
	Set    []SlotSet `json:"set,omitempty"`
}

// Diff is one revision step of the live plan: BaseRev is the revision it
// was computed against, NewRev = BaseRev+1 the revision it describes.
// From/NSlots re-anchor the plan (replans advance the plan window); jobs
// absent from both Remove and Update carry over with their base allocation
// rebased into the new range. Nothing in this module reads one back: a
// diff is produced (Compute), checked (Validate) and encoded (EncodeDiff)
// only for the whole-path benchmark's traced pass, bench/trace.go, which
// compiles against these and takes them with it when its wrapper goes.
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
// length with the length within MaxSlots, Remove and Update sorted with no duplicates and no overlap
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

// Compute derives the minimal diff that transforms base into next: the
// jobs next lacks, and for every other job of next that is new or changed
// its window and the slots that differ from its rebased base allocation.
// next.Rev must be base.Rev+1. Its one caller is core.FlowTime's publish
// under core.Config.StreamPlans, for the benchmark's traced pass.
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
	end := next.From + next.NSlots
	for _, id := range next.JobIDs() {
		nj := next.Jobs[id]
		bj, existed := base.Jobs[id]
		u := JobUpdate{ID: id, Window: nj.Window, Add: !existed}
		// Only a slot of one of the two windows can differ, the base's cut
		// to the new range; walk them in slot order, each slot once.
		a, b := nj.Window, Window{Rel: max(bj.Window.Rel, next.From), Dl: min(bj.Window.Dl, end)}
		if b.Rel < a.Rel {
			a, b = b, a
		}
		for _, w := range [2]Window{a, {Rel: max(b.Rel, a.Dl), Dl: b.Dl}} {
			for abs := w.Rel; abs < w.Dl; abs++ {
				if g := nj.at(abs); g != bj.at(abs) {
					u.Set = append(u.Set, SlotSet{Slot: abs, Alloc: g})
				}
			}
		}
		if existed && len(u.Set) == 0 && bj.Window == nj.Window {
			continue // untouched job: carried over implicitly
		}
		d.Update = append(d.Update, u)
	}
	return d
}
