package plan

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"flowtime/internal/binenc"
	"flowtime/internal/resource"
)

// diffFuzzSeeds are FuzzDecodeDiff's in-code seeds: a realistic diff, an
// empty diff, and the mutations a WAL corruption or adversarial peer could
// produce.
func diffFuzzSeeds() [][]byte {
	good, _ := EncodeDiff(&Diff{
		BaseRev: 2, NewRev: 3, From: 4, NSlots: 8,
		Remove: []string{"r1"},
		Update: []JobUpdate{
			{ID: "adhoc/ah00470", Window: Window{Rel: 4, Dl: 9}, Set: []SlotSet{{Slot: 5, Alloc: resource.New(2, 4096)}}},
			{ID: "adhoc/ah00471", Add: true, Window: Window{Rel: 6, Dl: 12}},
		},
	})
	empty, _ := EncodeDiff(&Diff{BaseRev: 0, NewRev: 1})
	return [][]byte{
		good,
		empty,
		append([]byte{0x03}, good[1:]...), // unknown format tag
		{diffTag, 0x81, 0x00, 0, 4, 0, 0}, // non-minimal varint
		{diffTag, 1, 0, 4, 0xff, 0xff, 0xff, 0xff, 7}, // remove count far beyond the input
		append(append([]byte{}, good...), good...),    // trailing data
		good[:len(good)/2],                            // torn encoding
		hugeNSlotsDiff(1),                             // plan length beyond MaxSlots
		thetaFormDiff(),                               // the refused form before front coding
	}
}

// hugeNSlotsDiff hand-assembles the diff EncodeDiff refuses to write: an
// otherwise empty step from baseRev whose NSlots is 2^40 — one flipped
// varint byte away from a real one, and a makeslice panic in Apply if
// Validate let it through.
func hugeNSlotsDiff(baseRev int64) []byte {
	w := binenc.Writer{}
	w.Byte(diffTag)
	w.Int(baseRev)
	w.Int(0)
	w.Int(1 << 40)
	w.Uint(0)
	w.Uint(0)
	return w.Buf
}

// FuzzDecodeDiff feeds arbitrary bytes to the diff codec. It must never
// panic. Whenever it claims success the decoded diff is structurally
// valid, and the encoding is canonical: the input re-encodes to exactly
// itself. Malformed input can only ever surface as an error. (That decoding allocates
// O(len(input)) whatever counts the input claims is
// TestDecodeDiffAllocation's to check; a decoder that trusted one would
// die here on makeslice.)
func FuzzDecodeDiff(f *testing.F) {
	for _, seed := range diffFuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDiff(data)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("DecodeDiff accepted structurally invalid diff: %v", verr)
		}
		re, eerr := EncodeDiff(d)
		if eerr != nil {
			t.Fatalf("re-encode of decoded diff failed: %v", eerr)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not canonical:\n in %x\nout %x", data, re)
		}
	})
}

// TestDecodeDiffAllocation holds DecodeDiff to allocating O(len(input)):
// over the fuzz seeds and over inputs that claim, at each place the format
// has a count or a length, far more elements than their bytes could hold.
func TestDecodeDiffAllocation(t *testing.T) {
	const huge = 1 << 24
	update := func(rest func(w *binenc.Writer)) []byte {
		return binDiff(func(w *binenc.Writer) {
			w.Uint(0)
			w.Uint(1)
			w.FrontString("", "a")
			w.Bool(false)
			w.Int(0)
			w.Int(4)
			rest(w)
		})
	}
	inputs := append(diffFuzzSeeds(),
		binDiff(func(w *binenc.Writer) { w.Uint(huge) }),                                    // removes
		binDiff(func(w *binenc.Writer) { w.Uint(1); w.Uint(0); w.Uint(huge) }),              // an ID's suffix length
		binDiff(func(w *binenc.Writer) { w.Uint(0); w.Uint(huge) }),                         // updates
		update(func(w *binenc.Writer) { w.Uint(huge) }),                                     // runs
		update(func(w *binenc.Writer) { w.Uint(1); w.Int(0); w.Uint(huge) }),                // a run's length
		binDiff(func(w *binenc.Writer) { w.Uint(2); w.FrontString("", "a"); w.Uint(huge) }), // a front-coded prefix
	)
	for i, in := range inputs {
		// The factor covers a one-byte element decoding into a ~100-byte
		// struct under append's doubling, the allowance a decoder's fixed
		// set-up.
		budget := uint64(len(in))*256 + 32<<10
		if got := allocatedBytes(func() { DecodeDiff(in) }); got > budget {
			t.Errorf("input %d: decoding %d bytes allocated %d, budget %d\n%x", i, len(in), got, budget, in)
		}
	}
}

// allocatedBytes reports the heap bytes f allocates. The counter is
// process-wide, so the smallest of three readings is taken: another
// goroutine's allocations do not repeat, a decoder that trusts a claimed
// count does.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	return best
}

// FuzzApplyDiff decodes arbitrary bytes as a diff and applies it to a
// deterministically generated base plan: Apply must never panic, must
// refuse stale base revisions loudly, and on any error must leave the
// base bit-for-bit unchanged (never partially applied). On success the
// result must carry the diff's NewRev and pass plan validation.
func FuzzApplyDiff(f *testing.F) {
	// Seeds pair a base-plan generator seed with a diff encoding. The
	// interesting seeds are diffs that are valid in isolation but
	// mismatched against the base: stale revision, unknown jobs,
	// re-added jobs, out-of-window sets.
	mustEnc := func(d *Diff) []byte {
		data, err := EncodeDiff(d)
		if err != nil {
			panic(err)
		}
		return data
	}
	f.Add(int64(1), mustEnc(&Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 6}))
	f.Add(int64(1), mustEnc(&Diff{BaseRev: 7, NewRev: 8, From: 0, NSlots: 6})) // stale
	f.Add(int64(2), mustEnc(&Diff{BaseRev: 2, NewRev: 3, From: 2, NSlots: 4,
		Remove: []string{"a"},
		Update: []JobUpdate{{ID: "q", Add: true, Window: Window{Rel: 2, Dl: 6},
			Set: []SlotSet{{Slot: 3, Alloc: resource.New(1, 256)}}}}}))
	f.Add(int64(3), mustEnc(&Diff{BaseRev: 3, NewRev: 4, From: 0, NSlots: 6,
		Update: []JobUpdate{{ID: "a", Add: true, Window: Window{Rel: 0, Dl: 4}}}})) // re-add collision
	f.Add(int64(4), mustEnc(&Diff{BaseRev: 4, NewRev: 5, From: 0, NSlots: 6,
		Update: []JobUpdate{{ID: "a", Window: Window{Rel: 0, Dl: 2},
			Set: []SlotSet{{Slot: 4, Alloc: resource.New(1, 1)}}}}})) // set outside the window
	// Chains to the base: refused for its length, before Apply sizes a
	// table per job by it.
	f.Add(int64(0), hugeNSlotsDiff(0))

	f.Fuzz(func(t *testing.T, planSeed int64, data []byte) {
		d, err := DecodeDiff(data)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(planSeed))
		base := genRandomPlan(rng, d.BaseRev&0xff+planSeed&0xff, int64(rng.Intn(8)), int64(1+rng.Intn(8)))
		snapshot := base.Clone()
		got, err := Apply(base, d)
		// Transactionality: whatever happened, the base is untouched.
		if base.Rev != snapshot.Rev {
			t.Fatalf("Apply mutated base revision: %d -> %d", snapshot.Rev, base.Rev)
		}
		if e := Equal(base, snapshot); e != nil {
			t.Fatalf("Apply mutated base content: %v", e)
		}
		if err != nil {
			return
		}
		if d.BaseRev != base.Rev {
			t.Fatalf("Apply accepted a diff with stale base %d against live %d", d.BaseRev, base.Rev)
		}
		if got.Rev != d.NewRev {
			t.Fatalf("applied plan rev %d, want %d", got.Rev, d.NewRev)
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("applied plan invalid: %v", verr)
		}
	})
}
