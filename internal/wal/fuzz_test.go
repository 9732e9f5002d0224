package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWALDecode drives the frame decoder with arbitrary bytes (seeded
// with valid logs, torn tails, and bit-flipped frames). Invariants, per
// ISSUE 4: never panic, never surface a record whose CRC does not match,
// and always accept exactly the longest valid prefix — re-encoding the
// accepted records must reproduce data[:valid] byte for byte. A log that
// is valid throughout decodes the same after a zero-filled remainder of
// any length, the bytes a preallocated segment keeps after its last frame.
func FuzzWALDecode(f *testing.F) {
	var seed []byte
	seed = AppendFrame(seed, Record{Type: RecOCTCommit, Payload: []byte(`{"writes":[{"name":"/x","version":1}]}`)})
	seed = AppendFrame(seed, Record{Type: RecHistoryAppend, Payload: []byte("control-stream record")})
	seed = AppendFrame(seed, Record{Type: RecCheckpoint, Payload: nil})
	f.Add(seed)
	f.Add(seed[:len(seed)-4]) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x20 // corrupt mid-log frame
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}) // absurd length
	f.Add(bytes.Repeat([]byte{0}, 64))                         // zero-length frames with zero CRC

	zeros := make([]byte, fillStep)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ends, valid := Scan(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d out of range [0, %d]", valid, len(data))
		}
		if len(ends) != len(recs) {
			t.Fatalf("len(ends) = %d, len(recs) = %d", len(ends), len(recs))
		}
		// Re-encoding the accepted records must reproduce the accepted
		// prefix exactly — this simultaneously proves every surfaced
		// record carries a valid CRC and that truncation lands on a
		// frame boundary.
		var re []byte
		for i, r := range recs {
			re = AppendFrame(re, r)
			if ends[i] != len(re) {
				t.Fatalf("record %d: end = %d, want %d", i, ends[i], len(re))
			}
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoded prefix differs from accepted prefix (%d records, valid=%d)", len(recs), valid)
		}
		// The byte after the accepted prefix must not start a valid
		// frame (maximality of the prefix).
		if rest, _, v := Scan(data[valid:]); v != 0 || len(rest) != 0 {
			t.Fatalf("prefix not maximal: %d more records decode at offset %d", len(rest), valid)
		}
		if valid != len(data) {
			return
		}
		for _, n := range []int{1, frameHeader, fillStep} {
			zrecs, zends, zvalid := Scan(append(data[:len(data):len(data)], zeros[:n]...))
			if zvalid != valid || !reflect.DeepEqual(zrecs, recs) || !reflect.DeepEqual(zends, ends) {
				t.Fatalf("%d zero bytes after a valid log changed the scan: %d records to %d, valid %d to %d",
					n, len(recs), len(zrecs), valid, zvalid)
			}
		}
	})
}
