// Package wiretest is the shared toolkit of the wire-conformance
// suites in dataio, transport and jobs/store: golden byte-vector
// comparison with an -update regeneration flag, and the house corpus
// of framing attacks (truncation, CRC bit-flips, lying length fields)
// that every codec fuzzer seeds from — so a defense added against one
// format's decoder is immediately rehearsed against the others.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden wire fixtures in place")

// Golden compares got against the fixture testdata/<name>. With
// -update the fixture is (re)written instead — run that once, eyeball
// the diff, commit the bytes. A missing fixture fails with the
// regeneration hint.
func Golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture %s missing (regenerate with go test -run %s -update): %v", path, t.Name(), err)
	}
	if bytes.Equal(got, want) {
		return
	}
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	t.Fatalf("%s: %d bytes, want %d; first difference at offset %d", path, len(got), len(want), off)
}

// Frozen returns the fixture testdata/<name> as committed. Unlike
// Golden it never writes: what is read through it pins an encoding no
// writer emits any more (the IEEE-checksummed generation every decoder
// must now reject), so there is nothing -update could regenerate it from.
func Frozen(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// PatchInt64 returns a copy of b with a little-endian int64 written at
// off — the standard way the fuzz corpora forge a length field.
func PatchInt64(b []byte, off int, v int64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off:], uint64(v))
	return out
}

// PatchUint32 returns a copy of b with a little-endian uint32 at off.
func PatchUint32(b []byte, off int, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// FlipBit returns a copy of b with one bit at byte offset off flipped.
func FlipBit(b []byte, off int) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 0x40
	return out
}

// Mutations derives the house corpus of framing attacks from one valid
// encoding whose first record's length field sits at lenOff: the valid
// bytes themselves, truncations cutting inside the header / payload /
// trailing checksum, a CRC bit-flip, and lying lengths (negative,
// shorter than the payload so the CRC lands mid-bytes, and far past
// any cap). Seed every codec fuzzer with all of them:
//
//	for _, m := range wiretest.Mutations(valid, off) { f.Add(m) }
func Mutations(valid []byte, lenOff int) [][]byte {
	out := [][]byte{append([]byte(nil), valid...)}
	cuts := []int{
		lenOff,         // before the length field
		lenOff + 4,     // inside the length field
		lenOff + 8,     // header intact, zero payload bytes
		len(valid) / 2, // mid-payload
		len(valid) - 4, // payload intact, checksum missing
		len(valid) - 1, // inside the checksum
	}
	seen := map[int]bool{len(valid): true}
	for _, cut := range cuts {
		if cut < 0 || seen[cut] {
			continue
		}
		seen[cut] = true
		out = append(out, append([]byte(nil), valid[:cut]...))
	}
	out = append(out, FlipBit(valid, len(valid)-2)) // corrupt the trailing CRC
	if mid := (lenOff + 8 + len(valid)) / 2; mid < len(valid) {
		out = append(out, FlipBit(valid, mid)) // corrupt the payload under an intact CRC
	}
	for _, lie := range []int64{-1, 3, 1 << 40, int64(len(valid))} {
		out = append(out, PatchInt64(valid, lenOff, lie))
	}
	return out
}
