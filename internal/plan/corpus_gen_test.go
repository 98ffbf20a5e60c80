package plan

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"flowtime/internal/binenc"
	"flowtime/internal/resource"
)

// TestGenerateFuzzCorpus regenerates the checked-in seed corpora under
// testdata/fuzz/ for the diff-codec fuzz targets. No-op unless
// GEN_CORPUS=1 is set:
//
//	GEN_CORPUS=1 go test ./internal/plan -run TestGenerateFuzzCorpus
//
// The seeds cover the malformed-diff taxonomy the decoder must refuse
// (unknown tag, the form before front coding, trailing bytes, unsorted or
// duplicate ops, a non-maximal front-coded prefix, a job both removed and
// updated, out-of-range slots, counts beyond the input, a plan length
// beyond MaxSlots, empty windows, torn encodings) plus valid diffs of
// several shapes — whole plans among them, each the diff from the empty
// plan one revision below it — so short CI bursts start from deep coverage.
// Only seed-NN files are rewritten: inputs the fuzzer found and a
// developer checked in beside them stay.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") != "1" {
		t.Skip("set GEN_CORPUS=1 to regenerate testdata/fuzz seed corpora")
	}

	enc := func(d *Diff) []byte {
		data, err := EncodeDiff(d)
		if err != nil {
			t.Fatalf("EncodeDiff: %v", err)
		}
		return data
	}
	rich := enc(&Diff{
		BaseRev: 2, NewRev: 3, From: 4, NSlots: 8,
		Remove: []string{"r1", "r2"},
		Update: []JobUpdate{
			{ID: "adhoc/ah00470", Window: Window{Rel: 4, Dl: 9}, Set: []SlotSet{
				{Slot: 5, Alloc: resource.New(2, 4096)}, {Slot: 7, Alloc: resource.Vector{}}}},
			{ID: "adhoc/ah00471", Add: true, Window: Window{Rel: 6, Dl: 12}, Set: []SlotSet{{Slot: 6, Alloc: resource.New(1, 512)}}},
		},
	})
	empty := enc(&Diff{BaseRev: 0, NewRev: 1})
	// whole is a plan's one encoding: every job an add onto the empty plan
	// one revision below it.
	whole := func(p *Plan) []byte { return enc(Compute(&Plan{Rev: p.Rev - 1}, p)) }
	wide := mkPlan(9, 40, 6)
	addJob(wide, "wf0003/SelfJoin-3#3", 40, 44, map[int64]resource.Vector{40: resource.New(4, 8192), 41: resource.New(4, 8192), 43: resource.New(1, 512)})
	addJob(wide, "wf0003/TeraSort-5#5", 42, 46, map[int64]resource.Vector{45: resource.New(8, 16384)})
	addJob(wide, "adhoc/ah00470", 40, 46, nil)

	// update assembles a binary diff (BaseRev 1, From 0, NSlots 4) with one
	// update of job "a" whose window and slot runs are given raw, so the
	// seeds can spell what EncodeDiff refuses to.
	update := func(rel, dl int64, runs ...[]int64) []byte {
		return binDiff(func(w *binenc.Writer) {
			w.Uint(0)
			w.Uint(1)
			w.FrontString("", "a")
			w.Bool(false)
			w.Int(rel)
			w.Int(dl)
			w.Uint(uint64(len(runs)))
			for _, run := range runs {
				for _, v := range run {
					w.Int(v)
				}
			}
		})
	}
	removes := func(ids ...string) []byte {
		return binDiff(func(w *binenc.Writer) {
			w.Uint(uint64(len(ids)))
			prev := ""
			for _, id := range ids {
				w.FrontString(prev, id)
				prev = id
			}
			w.Uint(0)
		})
	}

	writeCorpus(t, "FuzzDecodeDiff", [][]interface{}{
		{rich},
		{empty},
		{append([]byte{0x03}, rich[1:]...)}, // unknown format tag
		{append(append([]byte{}, rich...), 0)},
		{removes("b", "a")},
		{removes("a", "a")},
		{binDiff(func(w *binenc.Writer) { // job both removed and updated
			w.Uint(1)
			w.FrontString("", "a")
			w.Uint(1)
			w.FrontString("", "a")
			w.Bool(false)
			w.Int(0)
			w.Int(4)
			w.Uint(0)
		})},
		{update(0, 4, []int64{4, 1, 1, 1})},       // slot outside the plan range
		{update(0, 4, []int64{1, 1 << 40, 1, 1})}, // run length far beyond the input
		{update(4, 4)}, // empty window
		{rich[:len(rich)/2]},
		{concat(rich, empty)},
		{hugeNSlotsDiff(1)}, // plan length beyond MaxSlots
		{thetaFormDiff()},   // the form before front coding, θ levels and all
		{binDiff(func(w *binenc.Writer) { // a front-coded prefix shorter than the one shared
			w.Uint(2)
			w.FrontString("", "adhoc/ah00470")
			w.Uint(7)
			w.String("ah00471")
			w.Uint(0)
		})},
		{whole(wide)},
		{whole(mkPlan(1, 0, 0))},
	})

	staleVsBase := enc(&Diff{BaseRev: 7, NewRev: 8, From: 0, NSlots: 6})
	addCollision := enc(&Diff{BaseRev: 3, NewRev: 4, From: 0, NSlots: 6,
		Update: []JobUpdate{{ID: "a", Add: true, Window: Window{Rel: 0, Dl: 4}}}})
	reAnchor := enc(&Diff{BaseRev: 2, NewRev: 3, From: 2, NSlots: 4,
		Remove: []string{"a"},
		Update: []JobUpdate{{ID: "q", Add: true, Window: Window{Rel: 2, Dl: 6},
			Set: []SlotSet{{Slot: 3, Alloc: resource.New(1, 256)}}}}})

	writeCorpus(t, "FuzzApplyDiff", [][]interface{}{
		{int64(1), enc(&Diff{BaseRev: 1, NewRev: 2, From: 0, NSlots: 6})},
		{int64(1), staleVsBase},
		{int64(2), reAnchor},
		{int64(3), addCollision},
		{int64(4), enc(&Diff{BaseRev: 4, NewRev: 5, From: 0, NSlots: 6,
			Update: []JobUpdate{{ID: "a", Window: Window{Rel: 0, Dl: 2},
				Set: []SlotSet{{Slot: 4, Alloc: resource.New(1, 1)}}}}})}, // set outside the window
		{int64(5), rich},
		{int64(0), hugeNSlotsDiff(0)}, // chains to the base; refused for its length before Apply allocates by it
	})
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// writeCorpus writes one seed file per entry in the Go native fuzz
// corpus format ("go test fuzz v1"), one line per argument.
func writeCorpus(t *testing.T, target string, seeds [][]interface{}) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range old {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, args := range seeds {
		var buf bytes.Buffer
		buf.WriteString("go test fuzz v1\n")
		for _, a := range args {
			switch v := a.(type) {
			case []byte:
				fmt.Fprintf(&buf, "[]byte(%s)\n", strconv.Quote(string(v)))
			case int64:
				fmt.Fprintf(&buf, "int64(%d)\n", v)
			default:
				t.Fatalf("unsupported corpus arg type %T", a)
			}
		}
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d seeds to %s", len(seeds), dir)
}
