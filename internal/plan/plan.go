// Package plan defines the versioned multi-slot plan the scheduler
// publishes: the resource manager's ad-hoc gate admits against it and
// /v1/status reports it.
//
// A Plan is an immutable snapshot of the planner's output at one replan:
// a monotonically increasing revision, the absolute slot range it covers,
// and per job its effective window and one allocation per slot of that
// window — integers only. A job has no entry for a slot outside its
// window, so an allocation there cannot be written.
//
// A Diff carries one revision step — jobs added or removed, windows that
// moved, and exactly the slots whose allocations changed. Diffs have a
// producer and no reader: Compute, Diff.Validate and EncodeDiff are kept
// only because the whole-path benchmark's traced pass (bench/trace.go)
// compiles against them, and they go with that wrapper.
package plan

import (
	"fmt"
	"math"
	"sort"

	"flowtime/internal/resource"
)

// MaxSlots is the longest plan Validate accepts. A job's row holds one
// allocation vector per slot of its window, which the plan's range bounds,
// so the length bounds an allocation size. 2^20 slots is twelve days of
// one-second slots, four orders of magnitude past any horizon the planner
// is run at; a planner pushed beyond it has its plan refused by the
// replan's post-validation, whose degradation reason names the ceiling,
// and its jobs run unplanned.
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

// Job is one job's share of a plan: its window and its allocation in
// each slot of it.
type Job struct {
	Window Window `json:"window"`
	// Alloc has one entry per slot of the window: Alloc[i] is the
	// allocation at absolute slot Window.Rel+i.
	Alloc []resource.Vector `json:"alloc"`
}

// at returns the job's allocation at an absolute slot, zero outside its
// window.
func (j Job) at(abs int64) resource.Vector {
	off := abs - j.Window.Rel
	if off < 0 || off >= int64(len(j.Alloc)) {
		return resource.Vector{}
	}
	return j.Alloc[off]
}

// Plan is one revision of the live multi-slot plan.
type Plan struct {
	// Rev is the plan revision; revisions increase by exactly one per
	// replan. The empty pre-genesis plan is revision 0.
	Rev int64 `json:"rev"`
	// From is the plan's first absolute slot.
	From int64 `json:"from"`
	// NSlots is the plan length; every job's window lies inside
	// [From, From+NSlots).
	NSlots int64 `json:"n_slots"`
	// Jobs maps job ID to its window and allocations.
	Jobs map[string]Job `json:"jobs,omitempty"`
}

// Empty returns the pre-genesis plan: revision 0, no jobs. The first
// replan publishes revision 1.
func Empty() *Plan { return &Plan{} }

// AllocAt returns the job's allocation at an absolute slot (zero outside
// its window or for unknown jobs).
func (p *Plan) AllocAt(id string, abs int64) resource.Vector { return p.Jobs[id].at(abs) }

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
// window valid and inside the plan's range, its Alloc one entry per slot
// of the window, every entry non-negative.
func (p *Plan) Validate() error {
	if p.Rev < 0 {
		return fmt.Errorf("plan: negative rev %d", p.Rev)
	}
	if err := checkRange(p.From, p.NSlots); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	for _, id := range p.JobIDs() {
		j := p.Jobs[id]
		w := j.Window
		if !w.Valid() || w.Rel < p.From || w.Dl > p.From+p.NSlots {
			return fmt.Errorf("plan: job %q window [%d, %d) invalid or outside the plan's [%d, %d)",
				id, w.Rel, w.Dl, p.From, p.From+p.NSlots)
		}
		if int64(len(j.Alloc)) != w.Dl-w.Rel {
			return fmt.Errorf("plan: job %q has %d alloc slots, its window has %d", id, len(j.Alloc), w.Dl-w.Rel)
		}
		for i, g := range j.Alloc {
			if g.AnyNegative() {
				return fmt.Errorf("plan: job %q negative allocation %v at slot %d", id, g, w.Rel+int64(i))
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
		for i, g := range ja.Alloc {
			if abs := ja.Window.Rel + int64(i); g != jb.at(abs) {
				return fmt.Errorf("plan: job %q allocation differs at slot %d: %v vs %v", id, abs, g, jb.at(abs))
			}
		}
	}
	return nil
}
