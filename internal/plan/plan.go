// Package plan defines the versioned multi-slot plan that flows from the
// planner to the resource manager, and the diff protocol that replaces
// wholesale plan handover.
//
// A Plan is an immutable snapshot of the planner's output at one replan:
// a monotonically increasing revision, the absolute slot the allocations
// are anchored at, and per-job effective windows and per-slot allocations
// — integers only. A Diff carries one revision step — jobs added or
// removed, windows that moved, and exactly the slots whose allocations
// changed — fenced by the base revision it was computed against.
//
// Apply is transactional: it either produces the complete successor plan
// or returns an error and leaves the base untouched. A diff against the
// wrong base revision is refused loudly (ErrStaleBase), never partially
// applied; so are overlapping slot ops, unsorted op lists, and windows
// or allocations that fail validation. The differential equivalence
// harness in internal/oracle holds the whole protocol to the invariant
// Apply(base, Compute(base, next)) ≡ next after every scheduling event.
package plan

import (
	"fmt"
	"math"
	"sort"

	"flowtime/internal/resource"
)

// MaxSlots is the longest plan Validate accepts. A plan is a dense table —
// NSlots allocation vectors per job — so its length is an allocation size,
// and it reaches Apply from decoded bytes: without a ceiling one flipped
// varint byte is a makeslice panic or an OOM. 2^20
// slots is twelve days of one-second slots, four orders of magnitude past
// any horizon the planner is run at; a planner pushed beyond it has its
// plan refused at the encode, loudly, instead of journaled.
const MaxSlots = 1 << 20

// checkRange is the anchor/length check Plan.Validate and Diff.Validate
// share: both non-negative, the length within MaxSlots, and the range's end
// representable.
func checkRange(from, nSlots int64) error {
	if from < 0 || nSlots < 0 {
		return fmt.Errorf("negative from/nslots (%d/%d)", from, nSlots)
	}
	if nSlots > MaxSlots {
		return fmt.Errorf("%d slots exceeds the %d-slot plan ceiling", nSlots, MaxSlots)
	}
	if from > math.MaxInt64-nSlots {
		return fmt.Errorf("range [%d, +%d) overflows int64", from, nSlots)
	}
	return nil
}

// Window is a job's effective scheduling window in absolute slots;
// Dl is exclusive.
type Window struct {
	Rel int64 `json:"rel"`
	Dl  int64 `json:"dl"`
}

// Valid reports whether the window is non-empty and non-negative.
func (w Window) Valid() bool { return w.Rel >= 0 && w.Rel < w.Dl }

// Job is one job's share of a plan: its window and its per-slot
// allocation, indexed by offset from the owning plan's From.
type Job struct {
	Window Window `json:"window"`
	// Alloc has exactly the plan's NSlots entries; Alloc[off] is the
	// allocation at absolute slot From+off.
	Alloc []resource.Vector `json:"alloc"`
}

// Plan is one revision of the live multi-slot plan.
type Plan struct {
	// Rev is the plan revision; revisions increase by exactly one per
	// replan. The empty pre-genesis plan is revision 0.
	Rev int64 `json:"rev"`
	// From is the absolute slot Alloc offsets are anchored at.
	From int64 `json:"from"`
	// NSlots is the plan length; every job's Alloc has this length.
	NSlots int64 `json:"n_slots"`
	// Jobs maps job ID to its window and allocations.
	Jobs map[string]Job `json:"jobs,omitempty"`
}

// Empty returns the pre-genesis plan: revision 0, no jobs. Every diff
// stream starts from it.
func Empty() *Plan { return &Plan{} }

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{Rev: p.Rev, From: p.From, NSlots: p.NSlots}
	if p.Jobs != nil {
		out.Jobs = make(map[string]Job, len(p.Jobs))
		for id, j := range p.Jobs {
			out.Jobs[id] = Job{Window: j.Window, Alloc: append([]resource.Vector(nil), j.Alloc...)}
		}
	}
	return out
}

// AllocAt returns the job's allocation at an absolute slot (zero outside
// the plan range or for unknown jobs).
func (p *Plan) AllocAt(id string, abs int64) resource.Vector {
	j, ok := p.Jobs[id]
	if !ok {
		return resource.Vector{}
	}
	off := abs - p.From
	if off < 0 || off >= int64(len(j.Alloc)) {
		return resource.Vector{}
	}
	return j.Alloc[off]
}

// JobIDs returns the plan's job IDs in sorted order.
func (p *Plan) JobIDs() []string {
	ids := make([]string, 0, len(p.Jobs))
	for id := range p.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Validate checks the plan's structural invariants: non-negative
// revision, anchor and length, the length within MaxSlots; every job's
// Alloc sized to NSlots with non-negative entries; nonzero allocation only
// inside the job's window.
func (p *Plan) Validate() error {
	if p.Rev < 0 {
		return fmt.Errorf("plan: negative rev %d", p.Rev)
	}
	if err := checkRange(p.From, p.NSlots); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	for _, id := range p.JobIDs() {
		j := p.Jobs[id]
		if int64(len(j.Alloc)) != p.NSlots {
			return fmt.Errorf("plan: job %q has %d alloc slots, plan has %d", id, len(j.Alloc), p.NSlots)
		}
		if !j.Window.Valid() {
			return fmt.Errorf("plan: job %q window [%d, %d) invalid", id, j.Window.Rel, j.Window.Dl)
		}
		for off, g := range j.Alloc {
			if g.AnyNegative() {
				return fmt.Errorf("plan: job %q negative allocation %v at offset %d", id, g, off)
			}
			if g.IsZero() {
				continue
			}
			abs := p.From + int64(off)
			if abs < j.Window.Rel || abs >= j.Window.Dl {
				return fmt.Errorf("plan: job %q allocated %v at slot %d outside window [%d, %d)",
					id, g, abs, j.Window.Rel, j.Window.Dl)
			}
		}
	}
	return nil
}

// Equal compares two plans' content — anchor, length, job sets, windows
// and allocations — and returns nil or an error naming the
// first divergence. Revisions are not compared (callers that require
// revision agreement check Rev separately).
func Equal(a, b *Plan) error {
	if a == nil || b == nil {
		if a == b {
			return nil
		}
		return fmt.Errorf("plan: nil vs non-nil plan")
	}
	if a.From != b.From || a.NSlots != b.NSlots {
		return fmt.Errorf("plan: anchor/length differ: from %d/%d vs %d/%d", a.From, a.NSlots, b.From, b.NSlots)
	}
	if len(a.Jobs) != len(b.Jobs) {
		return fmt.Errorf("plan: job count differs: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for _, id := range a.JobIDs() {
		ja := a.Jobs[id]
		jb, ok := b.Jobs[id]
		if !ok {
			return fmt.Errorf("plan: job %q present in one plan only", id)
		}
		if ja.Window != jb.Window {
			return fmt.Errorf("plan: job %q window differs: [%d,%d) vs [%d,%d)",
				id, ja.Window.Rel, ja.Window.Dl, jb.Window.Rel, jb.Window.Dl)
		}
		for off := range ja.Alloc {
			if ja.Alloc[off] != jb.Alloc[off] {
				return fmt.Errorf("plan: job %q allocation differs at slot %d: %v vs %v",
					id, a.From+int64(off), ja.Alloc[off], jb.Alloc[off])
			}
		}
	}
	return nil
}
