package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ptychopath/internal/wire/wiretest"
)

// fuzzWAL builds a small valid log (magic + a few records) for seeding.
func fuzzWAL() []byte {
	buf := append([]byte(nil), walMagic[:]...)
	buf = appendFrame(buf, recSubmit, []byte(`{"id":"job-0001","key":"k","created":"2026-08-08T10:00:00Z"}`))
	buf = appendFrame(buf, recStart, []byte(`{"id":"job-0001","started":"2026-08-08T10:00:01Z"}`))
	buf = appendFrame(buf, recIteration, []byte(`{"id":"job-0001","iter":1,"cost":0.5}`))
	buf = appendFrame(buf, recCheckpoint, []byte(`{"id":"job-0001","path":"/x/job-0001.objck","iter":1}`))
	buf = appendFrame(buf, recFinish, []byte(`{"id":"job-0001","state":"done","finished":"2026-08-08T10:01:00Z"}`))
	return buf
}

// patchLen overwrites the length field of the record starting at off.
func patchLen(b []byte, off int, v int64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off+1:off+9], uint64(v))
	return out
}

// FuzzReadWAL fuzzes the record decoder and full replay with the
// mutations a crash or bitrot produces: truncation at every structural
// boundary, lying and oversized lengths, flipped CRCs, unknown kinds.
// The decoder must never panic and never partially apply: every outcome
// is clean EOF, ErrTornRecord, or ErrNotWAL.
func FuzzReadWAL(f *testing.F) {
	valid := fuzzWAL()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:8])  // magic only
	f.Add(valid[:4])  // torn inside the magic
	f.Add(valid[:9])  // kind byte, then nothing
	f.Add(valid[:12]) // torn inside the length field
	f.Add(valid[:17]) // full header, no payload
	f.Add(valid[:30]) // torn mid-payload
	// Lying lengths on the first record (starts at offset 8).
	f.Add(patchLen(valid, 8, 1<<40))          // far past the cap
	f.Add(patchLen(valid, 8, -1))             // negative
	f.Add(patchLen(valid, 8, maxRecordBytes)) // at the cap but beyond the data
	f.Add(patchLen(valid, 8, 3))              // shorter than the real payload: CRC lands mid-bytes
	// Oversized claim on a snapshot kind, which has the larger cap.
	snap := append([]byte(nil), walMagic[:]...)
	snap = appendFrame(snap, recSnapshot, []byte(`{"jobs":[]}`))
	f.Add(patchLen(snap, 8, maxSnapshotBytes))
	// Flip one CRC byte.
	crcFlipped := append([]byte(nil), valid...)
	crcFlipped[len(crcFlipped)-1] ^= 0x01
	f.Add(crcFlipped)
	// Flip one payload byte (CRC now mismatches).
	payloadFlipped := append([]byte(nil), valid...)
	payloadFlipped[20] ^= 0x80
	f.Add(payloadFlipped)
	// Unknown kind byte.
	badKind := append([]byte(nil), valid...)
	badKind[8] = 'Z'
	f.Add(badKind)
	// CRC-valid record whose payload is not JSON.
	notJSON := append([]byte(nil), walMagic[:]...)
	notJSON = appendFrame(notJSON, recSubmit, []byte("not json at all"))
	f.Add(notJSON)
	// Wrong magic entirely.
	f.Add([]byte("OBJCKv1\x00payload"))
	// The shared framing-attack corpus (same mutations the dataio and
	// transport fuzzers rehearse), anchored on the first record's
	// length field at offset 9 (magic + kind byte).
	for _, m := range wiretest.Mutations(valid, 9) {
		f.Add(m)
	}
	// The frozen v1-magic, IEEE-framed fixture must fail typed as not a
	// WAL; its mutations, under the current magic, as torn at the first
	// record.
	for i, m := range wiretest.Mutations(legacyWAL(f), 9) {
		if i > 0 {
			copy(m, walMagic[:])
		}
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw record decoder: every error must be EOF or a torn
		// record — typed, so recovery can distinguish "end of log"
		// from "foreign file".
		r := bytes.NewReader(data)
		for {
			_, payload, err := ReadRecord(r)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTornRecord) {
					t.Fatalf("ReadRecord: untyped error %v", err)
				}
				break
			}
			if len(payload) > maxSnapshotBytes {
				t.Fatalf("ReadRecord returned %d bytes past the cap", len(payload))
			}
		}

		// Full replay: must never error except for a foreign magic,
		// and the recovered state must be internally consistent no
		// matter how the input was mangled.
		rec, offset, err := ReplayWAL(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrNotWAL) {
				t.Fatalf("ReplayWAL: untyped error %v", err)
			}
			return
		}
		if offset < 0 || offset > int64(len(data)) {
			t.Fatalf("truncation offset %d outside [0, %d]", offset, len(data))
		}
		seen := make(map[string]bool, len(rec.Jobs))
		for _, j := range rec.Jobs {
			if seen[j.ID] {
				t.Fatalf("job %q recovered twice", j.ID)
			}
			seen[j.ID] = true
		}
		for key, id := range rec.Keys {
			if !seen[id] {
				t.Fatalf("key %q claims unknown job %q", key, id)
			}
		}
	})
}
