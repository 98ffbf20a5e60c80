package binenc

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Uint(0)
	w.Uint(math.MaxUint64)
	w.Int(math.MaxInt64)
	w.Int(300)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("wf0001/TeraSort-1#1")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Buf)
	if r.Byte() != 7 || r.Uint() != 0 || r.Uint() != math.MaxUint64 || r.Int() != math.MaxInt64 || r.Int() != 300 ||
		!r.Bool() || r.Bool() || r.String() != "" || r.String() != "wf0001/TeraSort-1#1" {
		t.Fatalf("fields did not round-trip (err %v)", r.Err())
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRefusesNegative(t *testing.T) {
	var w Writer
	w.Int(-1)
	w.Int(5) // still appended; the error is sticky
	if w.Err() == nil {
		t.Fatal("negative integer encoded")
	}
}

// TestReaderStrict: every way a byte string could decode two ways, or
// make the caller allocate more than it holds, is an error — and after an
// error every read returns zero, so a decoder's loops run out.
func TestReaderStrict(t *testing.T) {
	for name, c := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"empty varint":           {nil, func(r *Reader) { r.Uint() }},
		"torn varint":            {[]byte{0x80}, func(r *Reader) { r.Uint() }},
		"non-minimal zero":       {[]byte{0x80, 0x00}, func(r *Reader) { r.Uint() }},
		"non-minimal one":        {[]byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uint() }},
		"varint beyond 64 bits":  {append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uint() }},
		"eleven-byte varint":     {append(bytes.Repeat([]byte{0x80}, 10), 0x01), func(r *Reader) { r.Uint() }},
		"int beyond int64":       {append(bytes.Repeat([]byte{0xff}, 9), 0x01), func(r *Reader) { r.Int() }},
		"count beyond input":     {[]byte{3, 1, 2}, func(r *Reader) { r.Count(1) }},
		"count of wide elements": {[]byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"string beyond input":    {[]byte{4, 'a', 'b', 'c'}, func(r *Reader) { _ = r.String() }},
		"flag byte 2":            {[]byte{2}, func(r *Reader) { r.Bool() }},
		"missing byte":           {nil, func(r *Reader) { r.Byte() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if r.Uint() != 0 || r.Int() != 0 || r.Count(1) != 0 || r.Byte() != 0 || r.Bool() || r.String() != "" || r.FrontString("x") != "" || len(r.Rest()) != 0 {
			t.Errorf("%s: a failed reader still returns data", name)
		}
	}
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Error("trailing byte accepted")
	}
	r = NewReader([]byte{2, 0, 0, 0, 0})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Errorf("Count(2) with 4 bytes left = %d, %v", n, r.Err())
	}
}

// frontCases are (prev, s) pairs covering every way two strings relate:
// equal, one a prefix of the other, a shared stem, nothing shared, empty.
var frontCases = [][2]string{
	{"", ""}, {"", "adhoc/ah00470"}, {"adhoc/ah00470", "adhoc/ah00471"},
	{"adhoc/ah00471", "adhoc/ah00471"}, {"adhoc/ah00471", "adhoc/ah0047"},
	{"adhoc/ah0047", "adhoc/ah00479"}, {"adhoc/ah00479", "wf0001/TeraSort-1#1"},
	{"n007", "n001"}, {"abc", ""},
}

func TestFrontStringRoundTrip(t *testing.T) {
	var w Writer
	for _, c := range frontCases {
		w.FrontString(c[0], c[1])
	}
	r := NewReader(w.Buf)
	for _, c := range frontCases {
		if got := r.FrontString(c[0]); got != c[1] || r.Err() != nil {
			t.Errorf("FrontString(%q, %q) read back as %q (%v)", c[0], c[1], got, r.Err())
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	w = Writer{}
	w.FrontString("adhoc/ah00470", "adhoc/ah00471")
	if want := []byte{12, 1, '1'}; !bytes.Equal(w.Buf, want) {
		t.Errorf("the next ID of a run encodes to %v, want %v", w.Buf, want)
	}
}

// TestFrontStringRefusals: a prefix prev cannot supply, a prefix shorter
// than the one shared (the same string has a shorter spelling) and a
// suffix the input does not hold are errors.
func TestFrontStringRefusals(t *testing.T) {
	for name, c := range map[string]struct {
		prev string
		in   []byte
	}{
		"prefix past prev":         {"ab", []byte{3, 0}},
		"prefix of an empty prev":  {"", []byte{1, 0}},
		"non-maximal prefix":       {"abc", []byte{1, 2, 'b', 'x'}},
		"non-maximal empty prefix": {"abc", []byte{0, 1, 'a'}},
		"truncated suffix":         {"abc", []byte{3, 4, 'd', 'e'}},
		"missing suffix length":    {"abc", []byte{3}},
	} {
		r := NewReader(c.in)
		if s := r.FrontString(c.prev); r.Err() == nil {
			t.Errorf("%s: read %q", name, s)
		}
	}
	for _, ok := range []struct {
		prev string
		in   []byte
	}{{"abc", []byte{1, 2, 'x', 'y'}}, {"abc", []byte{3, 1, 'b'}}, {"abc", []byte{2, 0}}} {
		r := NewReader(ok.in)
		r.FrontString(ok.prev)
		if err := r.Finish(); err != nil {
			t.Errorf("%v after %q: %v", ok.in, ok.prev, err)
		}
	}
}

// FuzzFrontString: FrontString reads back what it wrote, and a byte
// string it accepts is exactly what the writer makes of the result;
// nothing panics.
func FuzzFrontString(f *testing.F) {
	for _, c := range frontCases {
		var w Writer
		w.FrontString(c[0], c[1])
		f.Add(c[0], c[1], w.Buf)
	}
	f.Add("abc", "", []byte{1, 2, 'b', 'x'})
	f.Add("ab", "", []byte{3, 0})
	f.Add("abc", "", []byte{3, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, prev, s string, data []byte) {
		var w Writer
		w.FrontString(prev, s)
		r := NewReader(w.Buf)
		if got := r.FrontString(prev); got != s || r.Finish() != nil {
			t.Fatalf("FrontString(%q, %q) read back as %q (%v)", prev, s, got, r.Err())
		}
		r = NewReader(data)
		got := r.FrontString(prev)
		if r.Finish() != nil {
			return
		}
		w = Writer{}
		w.FrontString(prev, got)
		if !bytes.Equal(w.Buf, data) {
			t.Fatalf("accepted %x after %q as %q, which encodes to %x", data, prev, got, w.Buf)
		}
	})
}
