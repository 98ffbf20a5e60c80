// Package binenc holds the primitives the journal's binary codecs share
// (internal/plan's diff codec and internal/rmserver's WAL record codec):
// unsigned LEB128 varints for every integer, length-prefixed strings,
// strings front-coded against the one before them, and a Reader that is
// strict by construction — a non-minimal or overflowing varint, a length
// or count larger than the bytes that remain, a front-coded prefix that is
// not the longest one, and trailing bytes are errors, so a byte string has
// at most one decoding and a decoder built on it can promise
// encode∘decode = identity.
//
// Writer and Reader carry a sticky error: after the first failure every
// further call is a no-op returning a zero value, so codecs read as
// straight-line field lists and check once at the end.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends encoded fields to Buf.
type Writer struct {
	Buf []byte
	err error
}

// Err returns the first encode failure, or nil.
func (w *Writer) Err() error { return w.err }

// Fail records err unless an earlier failure is already recorded.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Uint appends v as a varint.
func (w *Writer) Uint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Int appends a non-negative integer as a varint. The formats store no
// sign: a negative value is refused, not wrapped.
func (w *Writer) Int(v int64) {
	if v < 0 {
		w.Fail(fmt.Errorf("binenc: negative integer %d", v))
		return
	}
	w.Uint(uint64(v))
}

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }

// Bool appends a flag byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// FrontString appends s front-coded against prev: the length of the
// longest prefix the two share, then the rest of s as a string. In a list
// of IDs that share a stem (adhoc/ah00470, adhoc/ah00471) each costs its
// new suffix and two bytes.
func (w *Writer) FrontString(prev, s string) {
	p := 0
	for p < len(prev) && p < len(s) && prev[p] == s[p] {
		p++
	}
	w.Uint(uint64(p))
	w.String(s[p:])
}

// Reader consumes encoded fields from the front of a byte slice.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b. Strings the reader returns are copies; b is
// never retained.
func NewReader(b []byte) Reader { return Reader{b: b} }

var errShort = errors.New("binenc: input ends inside a field")

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier failure is already recorded, and
// stops the reader: every later read returns a zero value.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Rest returns the unread bytes (aliasing the input) and consumes them.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	return b
}

// Finish returns the sticky error, or an error if unread bytes remain.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail(fmt.Errorf("binenc: %d trailing bytes", len(r.b)))
	}
	return r.err
}

// Uint reads a varint, refusing overflow and non-minimal encodings (a
// multi-byte varint whose last byte is zero has a shorter spelling).
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(errShort)
		return 0
	case n < 0:
		r.Fail(errors.New("binenc: varint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.Fail(errors.New("binenc: non-minimal varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a varint that must fit a non-negative int64.
func (r *Reader) Int() int64 {
	v := r.Uint()
	if v > math.MaxInt64 {
		r.Fail(fmt.Errorf("binenc: integer %d overflows int64", v))
		return 0
	}
	return int64(v)
}

// Count reads an element count for a list whose elements each occupy at
// least minBytes (>= 1) bytes, refusing a count the remaining input cannot
// hold — checked before the caller allocates, so decoding allocates
// O(len(input)) whatever the input claims.
func (r *Reader) Count(minBytes int) int {
	v := r.Uint()
	if v > uint64(len(r.b)/minBytes) {
		r.Fail(fmt.Errorf("binenc: count %d exceeds the %d bytes that remain", v, len(r.b)))
		return 0
	}
	return int(v)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.Fail(errShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a flag byte; anything but 0 or 1 is refused.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(fmt.Errorf("binenc: flag byte %#x, want 0 or 1", c))
		return false
	}
	return c == 1
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// FrontString reads a string FrontString wrote against prev. The shared
// prefix must fit in prev and be the longest one — a suffix that opens
// with prev's next byte had a longer prefix to give — so a string has one
// spelling.
func (r *Reader) FrontString(prev string) string {
	p := r.Uint()
	if p > uint64(len(prev)) {
		r.Fail(fmt.Errorf("binenc: shared prefix of %d bytes, the previous string has %d", p, len(prev)))
	}
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	if n > 0 && p < uint64(len(prev)) && r.b[0] == prev[p] {
		r.Fail(fmt.Errorf("binenc: shared prefix of %d bytes is not the longest", p))
		return ""
	}
	s := prev[:p] + string(r.b[:n])
	r.b = r.b[n:]
	return s
}
