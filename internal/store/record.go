// Package store is the durability layer of the resource manager: an
// append-only, length-prefixed, CRC-checked write-ahead log plus
// periodic full-state snapshots, organized in generations. The RM
// journals every state mutation to the WAL (group-commit fsync keeps the
// hot submit/confirm path fast), periodically snapshots its full state,
// and on startup recovers by loading the latest valid snapshot and
// replaying the WAL records that follow it. A torn or corrupt WAL tail
// — the expected artifact of a crash mid-append — is truncated, never
// fatal; only a missing/corrupt snapshot with no older generation to
// fall back to aborts recovery.
//
// The package is payload-agnostic: records and snapshots are opaque byte
// slices. internal/rmserver owns the record schema and replay semantics
// (its WAL payloads are a tagged binary encoding, rmserver/walcodec.go;
// its snapshots are JSON).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: a 4-byte little-endian payload length, a 4-byte
// CRC-32C (Castagnoli) of the payload, then the payload itself. The
// frame carries no sequence number — ordering is positional — so the
// fixed cost per record is 8 bytes.
const frameHeaderLen = 8

// MaxRecordLen bounds a single record payload. A length prefix above it
// is treated as corruption (a torn or bit-flipped header would otherwise
// ask the reader to allocate gigabytes).
const MaxRecordLen = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record decode failures. ErrTornRecord means the input ended inside a
// record (crash mid-append); ErrCorruptRecord means the input is
// structurally complete but fails validation (bad length or CRC).
// Recovery treats both the same way: the record and everything after it
// are discarded.
var (
	ErrTornRecord    = errors.New("store: torn record (short input)")
	ErrCorruptRecord = errors.New("store: corrupt record")
)

// EncodeRecord frames a payload for appending to a WAL.
func EncodeRecord(payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordLen {
		return nil, fmt.Errorf("store: record payload %d bytes exceeds max %d", len(payload), MaxRecordLen)
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeaderLen:], payload)
	return buf, nil
}

// DecodeRecord parses one framed record from the front of b. It returns
// the payload (aliasing b) and the number of bytes consumed. A short
// input yields ErrTornRecord; a bad length or CRC yields
// ErrCorruptRecord. It never panics, whatever the input.
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeaderLen {
		return nil, 0, ErrTornRecord
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > MaxRecordLen {
		return nil, 0, fmt.Errorf("%w: length %d exceeds max %d", ErrCorruptRecord, plen, MaxRecordLen)
	}
	if len(b) < frameHeaderLen+int(plen) {
		return nil, 0, ErrTornRecord
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(plen)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	return payload, frameHeaderLen + int(plen), nil
}

// DecodeAll parses every record in b in order, stopping at the first
// torn or corrupt record. It returns the decoded payloads and the byte
// offset of the clean prefix — the truncation point recovery uses. err
// is nil when b is consumed exactly; otherwise it describes why decoding
// stopped (the payloads before the bad record are still returned).
func DecodeAll(b []byte) (payloads [][]byte, good int, err error) {
	for good < len(b) {
		payload, n, derr := DecodeRecord(b[good:])
		if derr != nil {
			return payloads, good, derr
		}
		payloads = append(payloads, payload)
		good += n
	}
	return payloads, good, nil
}
