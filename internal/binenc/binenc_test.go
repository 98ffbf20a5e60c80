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
	w.Float64(math.Copysign(0, -1))
	w.Float64(1.0 / 3)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Buf)
	if r.Byte() != 7 || r.Uint() != 0 || r.Uint() != math.MaxUint64 || r.Int() != math.MaxInt64 || r.Int() != 300 ||
		!r.Bool() || r.Bool() || r.String() != "" || r.String() != "wf0001/TeraSort-1#1" ||
		math.Float64bits(r.Float64()) != 1<<63 || r.Float64() != 1.0/3 {
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
		"torn float":             {make([]byte, 7), func(r *Reader) { r.Float64() }},
		"missing byte":           {nil, func(r *Reader) { r.Byte() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if r.Uint() != 0 || r.Int() != 0 || r.Count(1) != 0 || r.Byte() != 0 || r.Bool() || r.String() != "" || r.Float64() != 0 || len(r.Rest()) != 0 {
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
