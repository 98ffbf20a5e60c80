package plan

import (
	"math"
	"strings"
	"testing"

	"flowtime/internal/resource"
)

func mkPlan(rev, from, nslots int64) *Plan {
	return &Plan{Rev: rev, From: from, NSlots: nslots, Jobs: map[string]Job{}}
}

func addJob(p *Plan, id string, rel, dl int64, allocs map[int64]resource.Vector) {
	j := Job{Window: Window{Rel: rel, Dl: dl}, Alloc: make([]resource.Vector, dl-rel)}
	for abs, g := range allocs {
		j.Alloc[abs-rel] = g
	}
	p.Jobs[id] = j
}

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

func TestComputeUnchangedJobIsImplicit(t *testing.T) {
	base := mkPlan(1, 5, 4)
	addJob(base, "a", 5, 9, map[int64]resource.Vector{5: resource.New(1, 100)})
	next := base.Clone()
	next.Rev = 2
	d := Compute(base, next)
	if len(d.Remove) != 0 || len(d.Update) != 0 {
		t.Fatalf("no-op replan produced non-empty diff: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("no-op diff invalid: %v", err)
	}
}

func TestPlanValidate(t *testing.T) {
	p := mkPlan(1, 0, 4)
	addJob(p, "a", 0, 2, map[int64]resource.Vector{0: resource.New(1, 1)})
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan refused: %v", err)
	}
	// A row is its window long: one slot short or one slot over is refused.
	for _, n := range []int{1, 3} {
		bad := p.Clone()
		j := bad.Jobs["a"]
		j.Alloc = make([]resource.Vector, n)
		bad.Jobs["a"] = j
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "alloc slots") {
			t.Fatalf("a %d-slot row for a 2-slot window not refused: %v", n, err)
		}
	}
	// A window lies inside the plan's [From, From+NSlots).
	for _, w := range []Window{{Rel: 0, Dl: 2}, {Rel: 4, Dl: 6}} {
		bad := p.Clone()
		bad.From = 1
		bad.Jobs["a"] = Job{Window: w, Alloc: make([]resource.Vector, w.Dl-w.Rel)}
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "outside the plan") {
			t.Fatalf("window [%d, %d) of the plan [1, 5) not refused: %v", w.Rel, w.Dl, err)
		}
	}
	// The length is an allocation size: it has a ceiling,
	// and the ceiling itself is a legal plan.
	if err := (&Plan{Rev: 1, NSlots: MaxSlots}).Validate(); err != nil {
		t.Fatalf("plan of exactly MaxSlots refused: %v", err)
	}
	if err := (&Plan{Rev: 1, NSlots: MaxSlots + 1}).Validate(); err == nil {
		t.Fatalf("plan longer than MaxSlots accepted")
	}
	if err := (&Plan{Rev: 1, From: math.MaxInt64, NSlots: 1}).Validate(); err == nil {
		t.Fatalf("plan whose range end overflows accepted")
	}
	if err := (&Diff{NewRev: 1, NSlots: MaxSlots}).Validate(); err != nil {
		t.Fatalf("diff of exactly MaxSlots refused: %v", err)
	}
}

func TestEqualReportsDivergence(t *testing.T) {
	a := mkPlan(1, 0, 2)
	addJob(a, "j", 0, 2, map[int64]resource.Vector{0: resource.New(1, 1)})
	b := a.Clone()
	if err := Equal(a, b); err != nil {
		t.Fatalf("clones unequal: %v", err)
	}
	jb := b.Jobs["j"]
	jb.Alloc[1] = resource.New(5, 5)
	b.Jobs["j"] = jb
	if err := Equal(a, b); err == nil {
		t.Fatalf("allocation divergence not reported")
	}
	c := a.Clone()
	jc := c.Jobs["j"]
	jc.Window.Dl = 3
	c.Jobs["j"] = jc
	if err := Equal(a, c); err == nil {
		t.Fatalf("window divergence not reported")
	}
}

func TestEncodeRefusesInvalid(t *testing.T) {
	if _, err := EncodeDiff(&Diff{BaseRev: 1, NewRev: 9}); err == nil {
		t.Fatalf("invalid diff encoded")
	}
	// No revision lies below the pre-genesis plan, so no diff leads to it.
	if _, err := EncodeDiff(Compute(&Plan{Rev: -1}, Empty())); err == nil {
		t.Fatalf("diff from revision -1 encoded")
	}
}
