package plan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flowtime/internal/binenc"
	"flowtime/internal/resource"
)

func mkPlan(rev, from, nslots int64) *Plan {
	return &Plan{Rev: rev, From: from, NSlots: nslots, Jobs: map[string]Job{}}
}

func addJob(p *Plan, id string, rel, dl int64, allocs map[int64]resource.Vector) {
	j := Job{Window: Window{Rel: rel, Dl: dl}, Alloc: make([]resource.Vector, p.NSlots)}
	for abs, g := range allocs {
		j.Alloc[abs-p.From] = g
	}
	p.Jobs[id] = j
}

func TestComputeApplyRoundTrip(t *testing.T) {
	base := mkPlan(3, 10, 6)
	addJob(base, "a", 10, 14, map[int64]resource.Vector{10: resource.New(2, 4096), 11: resource.New(2, 4096)})
	addJob(base, "b", 12, 16, map[int64]resource.Vector{12: resource.New(1, 1024)})
	addJob(base, "gone", 10, 12, map[int64]resource.Vector{10: resource.New(4, 8192)})

	next := mkPlan(4, 12, 6) // plan window advanced by two slots
	addJob(next, "a", 12, 15, map[int64]resource.Vector{12: resource.New(3, 2048)})
	addJob(next, "b", 12, 16, map[int64]resource.Vector{12: resource.New(1, 1024)}) // unchanged content
	addJob(next, "new", 13, 17, map[int64]resource.Vector{13: resource.New(2, 2048), 14: resource.New(2, 2048)})

	d := Compute(base, next)
	if err := d.Validate(); err != nil {
		t.Fatalf("computed diff invalid: %v", err)
	}
	// "gone" leaves, "new" arrives, "a" changes; "b" is carried over.
	if !reflect.DeepEqual(d.Remove, []string{"gone"}) {
		t.Fatalf("removed %v, want [gone]", d.Remove)
	}
	if len(d.Update) != 2 || d.Update[0].ID != "a" || d.Update[0].Add || len(d.Update[0].Set) == 0 ||
		d.Update[1].ID != "new" || !d.Update[1].Add {
		t.Fatalf("updates %+v, want slot ops for a and an add of new", d.Update)
	}

	got, err := Apply(base, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.Rev != next.Rev {
		t.Fatalf("applied rev %d, want %d", got.Rev, next.Rev)
	}
	if err := Equal(got, next); err != nil {
		t.Fatalf("applied plan diverges from next: %v", err)
	}
	// Transactionality: base untouched.
	if base.Rev != 3 || len(base.Jobs) != 3 {
		t.Fatalf("base mutated by Apply")
	}
	if g := base.AllocAt("a", 10); g != resource.New(2, 4096) {
		t.Fatalf("base job a alloc mutated: %v", g)
	}
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
	got, err := Apply(base, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := Equal(got, next); err != nil {
		t.Fatalf("no-op diff diverges: %v", err)
	}
}

func TestApplyStaleBaseRefused(t *testing.T) {
	base := mkPlan(5, 0, 4)
	d := &Diff{BaseRev: 3, NewRev: 4, From: 0, NSlots: 4}
	_, err := Apply(base, d)
	if !errors.Is(err, ErrStaleBase) {
		t.Fatalf("stale diff not refused with ErrStaleBase: %v", err)
	}
	// Future base too: only the exact live revision is acceptable.
	d = &Diff{BaseRev: 7, NewRev: 8, From: 0, NSlots: 4}
	if _, err := Apply(base, d); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("future-base diff not refused with ErrStaleBase: %v", err)
	}
}

func TestApplyRefusesStructurallyInvalid(t *testing.T) {
	base := mkPlan(1, 0, 4)
	addJob(base, "a", 0, 4, map[int64]resource.Vector{0: resource.New(1, 1)})
	cases := []struct {
		name string
		d    *Diff
	}{
		{"rev step not one", &Diff{BaseRev: 1, NewRev: 3, From: 0, NSlots: 4}},
		{"negative nslots", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: -1}},
		// Refused before Apply sizes one table per job by it (the carried
		// job "a" would be the first makeslice).
		{"nslots past the ceiling", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: MaxSlots + 1}},
		{"nslots astronomic", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: math.MaxInt64}},
		{"range end overflows", &Diff{BaseRev: 1, NewRev: 2, From: math.MaxInt64 - 3, NSlots: 4}},
		{"remove unknown", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4, Remove: []string{"zzz"}}},
		{"remove unsorted", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4, Remove: []string{"b", "a"}}},
		{"remove dup", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4, Remove: []string{"a", "a"}}},
		{"remove and update overlap", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Remove: []string{"a"}, Update: []JobUpdate{{ID: "a", Window: Window{0, 4}}}}},
		{"update unknown not add", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "x", Window: Window{0, 4}}}}},
		{"add existing", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Add: true, Window: Window{0, 4}}}}},
		{"slot out of range", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Window: Window{0, 4}, Set: []SlotSet{{Slot: 9, Alloc: resource.New(1, 1)}}}}}},
		{"overlapping slot ops", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Window: Window{0, 4}, Set: []SlotSet{
				{Slot: 2, Alloc: resource.New(1, 1)}, {Slot: 2, Alloc: resource.New(2, 2)}}}}}},
		{"negative alloc", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Window: Window{0, 4}, Set: []SlotSet{{Slot: 1, Alloc: resource.New(-1, 0)}}}}}},
		{"invalid window", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Window: Window{4, 4}}}}},
		{"alloc outside window", &Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 4,
			Update: []JobUpdate{{ID: "a", Window: Window{0, 2}, Set: []SlotSet{{Slot: 3, Alloc: resource.New(1, 1)}}}}}},
	}
	for _, tc := range cases {
		snapshot := base.Clone()
		_, err := Apply(base, tc.d)
		if err == nil {
			t.Errorf("%s: diff accepted, want refusal", tc.name)
		}
		if e := Equal(base, snapshot); e != nil || base.Rev != snapshot.Rev {
			t.Errorf("%s: base mutated by refused diff: %v", tc.name, e)
		}
	}
}

func TestApplyRebasesCarriedJobs(t *testing.T) {
	base := mkPlan(1, 10, 4)
	addJob(base, "carry", 10, 14, map[int64]resource.Vector{
		10: resource.New(1, 100), 13: resource.New(2, 200),
	})
	// Plan window advances by two slots: slot 10 falls off, slot 13 stays.
	d := &Diff{BaseRev: 1, NewRev: 2, From: 12, NSlots: 4}
	got, err := Apply(base, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if g := got.AllocAt("carry", 13); g != resource.New(2, 200) {
		t.Fatalf("carried slot 13 = %v, want <1,200>", g)
	}
	if g := got.AllocAt("carry", 10); !g.IsZero() {
		t.Fatalf("slot 10 should be outside the new plan: %v", g)
	}
	if g := got.AllocAt("carry", 15); !g.IsZero() {
		t.Fatalf("new slot 15 should start empty: %v", g)
	}
}

func TestPlanValidate(t *testing.T) {
	p := mkPlan(1, 0, 4)
	addJob(p, "a", 0, 2, map[int64]resource.Vector{0: resource.New(1, 1)})
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan refused: %v", err)
	}
	bad := p.Clone()
	j := bad.Jobs["a"]
	j.Alloc[3] = resource.New(1, 1) // slot 3 outside window [0,2)
	bad.Jobs["a"] = j
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "outside window") {
		t.Fatalf("out-of-window alloc not refused: %v", err)
	}
	bad2 := p.Clone()
	j2 := bad2.Jobs["a"]
	j2.Alloc = j2.Alloc[:2]
	bad2.Jobs["a"] = j2
	if err := bad2.Validate(); err == nil {
		t.Fatalf("short alloc slice not refused")
	}
	// The length is an allocation size (Load, Apply): it has a ceiling,
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

// richDiff exercises every part of the encoding: removes and updates whose
// IDs share a prefix with the one before them, one that extends it and
// one that shares nothing, an update and an add, slot runs of length one
// and three with gaps before and between them, and an empty slot set.
func richDiff() *Diff {
	return &Diff{BaseRev: 2, NewRev: 3, From: 4, NSlots: 300,
		Remove: []string{"adhoc/ah00470", "adhoc/ah00471", "r2"},
		Update: []JobUpdate{
			{ID: "a", Window: Window{4, 200}, Set: []SlotSet{
				{Slot: 5, Alloc: resource.New(2, 4096)},
				{Slot: 7, Alloc: resource.New(1, 17129)}, {Slot: 8, Alloc: resource.Vector{}}, {Slot: 9, Alloc: resource.New(14, 1)},
				{Slot: 150, Alloc: resource.New(3, 3)}}},
			{ID: "ab", Window: Window{4, 5}},
			{ID: "z", Add: true, Window: Window{6, 12}, Set: []SlotSet{{Slot: 4, Alloc: resource.Vector{}}, {Slot: 6, Alloc: resource.New(1, 512)}}},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	roundTrip := func(d *Diff) {
		t.Helper()
		data, err := EncodeDiff(d)
		if err != nil {
			t.Fatalf("EncodeDiff: %v", err)
		}
		got, err := DecodeDiff(data)
		if err != nil {
			t.Fatalf("DecodeDiff: %v", err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("decode∘encode is not the identity:\n%+v\n%+v", d, got)
		}
		re, err := EncodeDiff(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("roundtrip not stable:\n%x\n%x", data, re)
		}
	}
	roundTrip(richDiff())
	roundTrip(&Diff{BaseRev: 0, NewRev: 1})
	// A base revision of 123 is the one whose varint is '{'.
	roundTrip(&Diff{BaseRev: 123, NewRev: 124, From: 123, NSlots: 123})
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		from := int64(rng.Intn(200))
		base := genRandomPlan(rng, int64(iter), from, int64(1+rng.Intn(12)))
		next := genRandomPlan(rng, int64(iter)+1, from+int64(rng.Intn(4)), int64(1+rng.Intn(12)))
		roundTrip(Compute(base, next))
	}
}

// binDiff hand-assembles a binary diff header (tag, BaseRev 1, From 0,
// NSlots 4) followed by whatever body writes.
func binDiff(body func(w *binenc.Writer)) []byte {
	w := binenc.Writer{}
	w.Byte(diffTag)
	w.Int(1)
	w.Int(0)
	w.Int(4)
	body(&w)
	return w.Buf
}

func TestCodecRefusesMalformed(t *testing.T) {
	// update spells a diff whose only content is one update of job "a",
	// from its add flag on.
	update := func(rest func(w *binenc.Writer)) []byte {
		return binDiff(func(w *binenc.Writer) {
			w.Uint(0) // removes
			w.Uint(1) // updates
			w.FrontString("", "a")
			rest(w)
		})
	}
	good := update(func(w *binenc.Writer) {
		w.Bool(false)
		w.Int(0)
		w.Int(4)
		w.Uint(1) // runs
		w.Int(1)  // gap: slot 1
		w.Uint(2) // slots 1, 2
		for _, a := range []int64{1, 1, 2, 2} {
			w.Int(a)
		}
	})
	if d, err := DecodeDiff(good); err != nil || len(d.Update[0].Set) != 2 {
		t.Fatalf("hand-assembled reference diff refused: %v", err)
	}
	// removes spells a diff whose only content is a remove list, each ID as
	// a shared-prefix length and a suffix.
	removes := func(prefixSuffix ...any) []byte {
		return binDiff(func(w *binenc.Writer) {
			w.Uint(uint64(len(prefixSuffix) / 2))
			for i := 0; i < len(prefixSuffix); i += 2 {
				w.Uint(uint64(prefixSuffix[i].(int)))
				w.String(prefixSuffix[i+1].(string))
			}
			w.Uint(0)
		})
	}
	if d, err := DecodeDiff(removes(0, "ab", 1, "c")); err != nil || d.Remove[1] != "ac" {
		t.Fatalf("hand-assembled remove list refused: %+v, %v", d, err)
	}
	cases := map[string][]byte{
		"empty":                       {},
		"not a diff":                  []byte("not json"),
		"unknown tag":                 append([]byte{0x03}, good[1:]...),
		"trailing byte":               append(append([]byte{}, good...), 0),
		"two diffs":                   append(append([]byte{}, good...), good...),
		"non-minimal":                 {diffTag, 0x81, 0x00, 0, 4, 0, 0},
		"varint overflow":             append([]byte{diffTag}, bytes.Repeat([]byte{0xff}, 11)...),
		"beyond int64":                append(append([]byte{diffTag}, bytes.Repeat([]byte{0xff}, 9)...), 0x01, 0, 4, 0, 0),
		"no successor rev":            append(append([]byte{diffTag}, bytes.Repeat([]byte{0xff}, 8)...), 0x7f, 0, 4, 0, 0),
		"nslots past the ceiling":     hugeNSlotsDiff(1),
		"remove count beyond input":   binDiff(func(w *binenc.Writer) { w.Uint(1 << 40) }),
		"string beyond input":         binDiff(func(w *binenc.Writer) { w.Uint(1); w.Uint(0); w.Uint(200); w.Byte('a') }),
		"unsorted removes":            removes(0, "b", 0, "a"),
		"repeated remove":             removes(0, "ab", 2, ""),
		"prefix past the previous ID": removes(0, "ab", 3, "c"),
		"non-maximal prefix":          removes(0, "ab", 0, "ac"),
		"flag byte 2": update(func(w *binenc.Writer) {
			w.Byte(2)
			w.Int(0)
			w.Int(4)
			w.Uint(0)
		}),
		"empty window": update(func(w *binenc.Writer) {
			w.Bool(false)
			w.Int(4)
			w.Int(4)
			w.Uint(0)
		}),
		"empty run": update(func(w *binenc.Writer) {
			w.Bool(false)
			w.Int(0)
			w.Int(4)
			w.Uint(1)
			w.Int(0)
			w.Uint(0)
			w.Uint(0)
			w.Uint(0) // padding so the run count passes its size check
		}),
		"slot outside plan range": update(func(w *binenc.Writer) {
			w.Bool(false)
			w.Int(0)
			w.Int(4)
			w.Uint(1)
			w.Int(4)
			w.Uint(1)
			w.Int(1)
			w.Int(1)
		}),
		"run overflows int64": update(func(w *binenc.Writer) {
			w.Bool(false)
			w.Int(0)
			w.Int(4)
			w.Uint(1)
			w.Int(math.MaxInt64)
			w.Uint(1)
			w.Int(1)
			w.Int(1)
		}),
		// The forms diffs had before this one: valid then, refused now by name.
		"JSON diff":        []byte(`{"base_rev":1,"new_rev":2,"from":0,"n_slots":4}`),
		"tag 0x01 diff":    thetaFormDiff(),
		"tag 0x01 diff, θ": append([]byte{diffTagTheta}, good[1:]...),
	}
	for name, raw := range cases {
		_, err := DecodeDiff(raw)
		if err == nil {
			t.Errorf("malformed diff accepted (%s): %x", name, raw)
		} else if strings.HasPrefix(name, "JSON") && !strings.Contains(err.Error(), "JSON diff") ||
			strings.HasPrefix(name, "tag 0x01") && !strings.Contains(err.Error(), "tag 0x01 diff") {
			t.Errorf("%s refused with %q, which does not name it", name, err)
		}
	}
	// A torn encoding is refused at every length.
	rich, err := EncodeDiff(richDiff())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(rich); n++ {
		if _, err := DecodeDiff(rich[:n]); err == nil {
			t.Errorf("diff torn at %d/%d bytes accepted", n, len(rich))
		}
	}
}

// thetaFormDiff is a diff in the form before front coding, by hand: tag
// 0x01, the header, a remove and an update spelled out, and behind them
// θ levels, a kind name and raw IEEE-754 bits per level.
func thetaFormDiff() []byte {
	w := binenc.Writer{}
	w.Byte(diffTagTheta)
	w.Int(1)
	w.Int(0)
	w.Int(4)
	w.Uint(1)
	w.String("adhoc/ah00470")
	w.Uint(1)
	w.String("adhoc/ah00471")
	w.Bool(true)
	w.Int(0)
	w.Int(4)
	w.Uint(1)
	w.Int(0)
	w.Uint(1)
	w.Int(2)
	w.Int(512)
	w.Uint(1)
	w.String("vcores")
	w.Uint(1)
	return binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(0.5))
}

func TestEncodeRefusesInvalid(t *testing.T) {
	if _, err := EncodeDiff(&Diff{BaseRev: 1, NewRev: 9}); err == nil {
		t.Fatalf("invalid diff encoded")
	}
	// The pre-genesis plan has no whole-plan encoding: no revision lies
	// below it.
	if _, err := EncodeDiff(Compute(&Plan{Rev: -1}, Empty())); err == nil {
		t.Fatalf("whole plan of revision 0 encoded")
	}
}

// genRandomPlan builds a random valid plan for the randomized
// Compute/Apply sweep (shared with the fuzz seed corpus).
func genRandomPlan(rng *rand.Rand, rev, from, nslots int64) *Plan {
	p := mkPlan(rev, from, nslots)
	njobs := rng.Intn(8)
	for i := 0; i < njobs; i++ {
		id := string(rune('a' + i))
		rel := from + int64(rng.Intn(int(nslots)))
		dl := rel + 1 + int64(rng.Intn(int(nslots)))
		j := Job{Window: Window{Rel: rel, Dl: dl}, Alloc: make([]resource.Vector, nslots)}
		for off := int64(0); off < nslots; off++ {
			abs := from + off
			if abs >= rel && abs < dl && rng.Intn(2) == 0 {
				j.Alloc[off] = resource.New(int64(rng.Intn(8)), int64(rng.Intn(4096)))
			}
		}
		p.Jobs[id] = j
	}
	return p
}

func TestComputeApplyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		from := int64(rng.Intn(20))
		n := int64(1 + rng.Intn(10))
		base := genRandomPlan(rng, int64(iter), from, n)
		// next advances the window by 0..3 slots and is otherwise
		// independent — the hardest case for the differ.
		next := genRandomPlan(rng, int64(iter)+1, from+int64(rng.Intn(4)), int64(1+rng.Intn(10)))
		d := Compute(base, next)
		if err := d.Validate(); err != nil {
			t.Fatalf("iter %d: computed diff invalid: %v\nbase=%+v\nnext=%+v", iter, err, base, next)
		}
		got, err := Apply(base, d)
		if err != nil {
			t.Fatalf("iter %d: Apply: %v", iter, err)
		}
		if got.Rev != next.Rev {
			t.Fatalf("iter %d: rev %d want %d", iter, got.Rev, next.Rev)
		}
		if err := Equal(got, next); err != nil {
			t.Fatalf("iter %d: Apply(base, Compute(base, next)) != next: %v", iter, err)
		}
	}
}

// TestWholePlanIsADiff holds a whole plan's one encoding — the diff that
// builds it from the empty plan one revision below — to its contract: every
// job an add, decode and Apply onto that empty base give back the plan, and
// the plan re-encodes to the same bytes.
func TestWholePlanIsADiff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		p := genRandomPlan(rng, int64(1+iter), int64(rng.Intn(20)), int64(1+rng.Intn(10)))
		data, err := EncodeDiff(Compute(&Plan{Rev: p.Rev - 1}, p))
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		d, err := DecodeDiff(data)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		for _, u := range d.Update {
			if !u.Add {
				t.Fatalf("iter %d: job %q is not an add", iter, u.ID)
			}
		}
		got, err := Apply(&Plan{Rev: d.BaseRev}, d)
		if err != nil {
			t.Fatalf("iter %d: apply: %v", iter, err)
		}
		if got.Rev != p.Rev {
			t.Fatalf("iter %d: rev %d, want %d", iter, got.Rev, p.Rev)
		}
		if err := Equal(got, p); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if re, err := EncodeDiff(Compute(&Plan{Rev: got.Rev - 1}, got)); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("iter %d: re-encode differs (%v):\n%x\n%x", iter, err, data, re)
		}
	}
}
