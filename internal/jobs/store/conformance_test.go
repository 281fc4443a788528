package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// conformanceRecords is the fixed record sequence behind the WAL
// golden vectors — a full job lifecycle with hand-written timestamps
// so the bytes are stable across runs and machines.
func conformanceRecords() []struct {
	kind    byte
	payload string
} {
	return []struct {
		kind    byte
		payload string
	}{
		{recSubmit, `{"id":"job-0001","key":"k","created":"2026-08-08T10:00:00Z"}`},
		{recStart, `{"id":"job-0001","started":"2026-08-08T10:00:01Z"}`},
		{recIteration, `{"id":"job-0001","iter":1,"cost":0.5}`},
		{recCheckpoint, `{"id":"job-0001","path":"/x/job-0001.objck","iter":1}`},
		{recFinish, `{"id":"job-0001","state":"done","finished":"2026-08-08T10:01:00Z"}`},
	}
}

// legacyWAL returns the frozen fixture of the lifecycle as the
// pre-Castagnoli writer logged it: PTYWALv1 magic, IEEE record CRCs.
func legacyWAL(t testing.TB) []byte { return wiretest.Frozen(t, "wal_v1_ieee.golden") }

// TestGoldenWAL pins the WAL encoding to committed bytes through the
// production appendFrame, replays it, and requires the legacy encoding
// of the same lifecycle to be refused: by its magic as not a WAL, and —
// with the current magic spliced over it — by its first record's
// checksum as a torn log from which nothing is applied.
func TestGoldenWAL(t *testing.T) {
	current := append([]byte(nil), walMagic[:]...)
	for _, r := range conformanceRecords() {
		current = appendFrame(current, r.kind, []byte(r.payload))
	}
	wiretest.Golden(t, "wal_v2_castagnoli.golden", current)

	rec, off, err := ReplayWAL(bytes.NewReader(current))
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(len(current)) || rec.Torn != 0 {
		t.Fatalf("replay stopped at %d/%d bytes, %d torn", off, len(current), rec.Torn)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "job-0001" {
		t.Fatalf("recovered %+v, want the one fixture job", rec.Jobs)
	}

	legacy := legacyWAL(t)
	first := []byte(conformanceRecords()[0].payload)
	if len(legacy) != len(current) || !bytes.Equal(legacy[8:17+len(first)], current[8:17+len(first)]) ||
		wire.Uint32(legacy[17+len(first):]) != crc32.ChecksumIEEE(first) {
		t.Fatal("fixture is not the golden lifecycle under the v1 magic with IEEE record checksums")
	}
	if _, _, err := ReplayWAL(bytes.NewReader(legacy)); !errors.Is(err, ErrNotWAL) {
		t.Fatalf("PTYWALv1 log: %v, want ErrNotWAL", err)
	}
	spliced := append(append([]byte(nil), walMagic[:]...), legacy[8:]...)
	if _, _, err := ReadRecord(bytes.NewReader(spliced[8:])); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("IEEE-checksummed record: %v, want ErrTornRecord", err)
	}
	rec, off, err = ReplayWAL(bytes.NewReader(spliced))
	if err != nil || off != 8 || rec.Torn != 1 || rec.Records != 0 || len(rec.Jobs) != 0 {
		t.Fatalf("IEEE-checksummed records under the v2 magic: offset %d, %+v, err %v; want a torn log with nothing applied", off, rec, err)
	}
}

// TestRecordAppendAllocs is the allocation-budget guard for the WAL
// hot path: framing a record into a warm scratch buffer is zero-alloc.
func TestRecordAppendAllocs(t *testing.T) {
	payload := []byte(`{"id":"job-0001","iter":1,"cost":0.5}`)
	buf := appendFrame(nil, recIteration, payload)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], recIteration, payload)
	})
	if allocs > 0 {
		t.Errorf("warm appendFrame: %.0f allocs/op, budget 0", allocs)
	}
}
