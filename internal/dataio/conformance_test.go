package dataio

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// conformanceProblem is a hand-built deterministic dataset — every
// value is chosen by hand (exact binary fractions, fixed locations) so
// the golden byte vectors depend only on the wire formats, never on
// the physics or RNG code paths that solver.Simulate exercises.
func conformanceProblem() *solver.Problem {
	const n = 4
	probe := grid.NewComplex2DSize(n, n)
	for i := range probe.Data {
		probe.Data[i] = complex(float64(i)/16, -float64(i)/32)
	}
	pat := &scan.Pattern{ImageW: 32, ImageH: 32, StepPix: 5, RadiusPix: 6}
	var meas []*grid.Float2D
	for k := 0; k < 3; k++ {
		pat.Locations = append(pat.Locations, scan.Location{
			Index: k, X: float64(8 + 5*k), Y: 9, Radius: 6,
		})
		m := grid.NewFloat2DSize(n, n)
		for i := range m.Data {
			m.Data[i] = float64(k*16+i) / 8
		}
		meas = append(meas, m)
	}
	return &solver.Problem{Pattern: pat, Meas: meas, Probe: probe, WindowN: n, Slices: 1}
}

// legacyStream returns the frozen fixture of a stream as the
// pre-Castagnoli writer framed it — conformanceProblem in 2-frame
// chunks under the PTYCHSv1 magic with IEEE chunk CRCs — and the offset
// of its first chunk.
func legacyStream(t testing.TB) (raw []byte, firstChunk int) {
	const n = 4 // conformanceProblem's window; one slice, so no propagator
	return wiretest.Frozen(t, "ptychs_v1_ieee.golden"), 8 + 8*8 + 2*8*n*n
}

// TestGoldenDataset: a batch dataset is a closed PTYCHSv2 stream. Write
// emits the golden stream's opening, the frames in one chunk (three fit
// in ChunkFrames), then 'E'; Read of that and of the golden stream,
// chunked by two, gives back one problem that re-encodes to the same
// bytes. The retired PTYCHOv1 container, frozen, is a bad magic.
func TestGoldenDataset(t *testing.T) {
	prob := conformanceProblem()
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	if want := writeChunked(t, prob, len(prob.Meas)); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write emitted %d bytes, want the opening, one chunk of %d frames and 'E' (%d bytes)",
			buf.Len(), len(prob.Meas), len(want))
	}
	for _, enc := range [][]byte{buf.Bytes(), wiretest.Frozen(t, "ptychs_v2.golden")} {
		got, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := Write(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("dataset decode→re-encode is not bit-identical")
		}
	}
	if _, err := Read(bytes.NewReader(wiretest.Frozen(t, "ptycho_v1.golden"))); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("PTYCHOv1 dataset: %v, want a bad-magic error", err)
	}
}

// TestGoldenObject pins the OBJCKv1 checkpoint format.
func TestGoldenObject(t *testing.T) {
	slices := make([]*grid.Complex2D, 2)
	for s := range slices {
		c := grid.NewComplex2DSize(6, 6)
		for i := range c.Data {
			c.Data[i] = complex(float64(s*64+i)/8, float64(i)/4)
		}
		slices[s] = c
	}
	var buf bytes.Buffer
	if err := WriteObject(&buf, slices); err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "objck_v1.golden", buf.Bytes())

	got, err := ReadObject(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteObject(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("OBJCKv1 decode→re-encode is not bit-identical")
	}
}

// TestGoldenStream pins the PTYCHSv2 (Castagnoli) stream encoding, in
// 2-frame chunks, and proves decode→re-encode is bit-identical.
func TestGoldenStream(t *testing.T) {
	prob := conformanceProblem()
	raw := writeChunked(t, prob, 2)
	wiretest.Golden(t, "ptychs_v2.golden", raw)

	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, writeChunked(t, got, 2)) {
		t.Fatal("PTYCHSv2 decode→re-encode is not bit-identical")
	}
}

// TestGoldenStreamLegacy: the old IEEE-framed PTYCHSv1 encoding must be
// rejected, by its magic and — with the current magic spliced over it —
// by the checksum of its first chunk. The fixture is otherwise the very
// stream TestGoldenStream pins, so nothing but the polynomial is what
// the reader refuses.
func TestGoldenStreamLegacy(t *testing.T) {
	legacy, firstChunk := legacyStream(t)
	current := wiretest.Frozen(t, "ptychs_v2.golden")
	payload := legacy[firstChunk+9 : firstChunk+9+int(wire.Int64(legacy[firstChunk+1:]))]
	sum := wire.Uint32(legacy[firstChunk+9+len(payload):])
	if sum != crc32.ChecksumIEEE(payload) || !bytes.Equal(legacy[8:firstChunk+9+len(payload)], current[8:firstChunk+9+len(payload)]) {
		t.Fatal("fixture is not the golden stream under the v1 magic with an IEEE chunk checksum")
	}

	if _, err := Read(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("PTYCHSv1 stream: %v, want a bad-magic error", err)
	}
	if _, err := ReadStreamHeader(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("PTYCHSv1 opening: %v, want a bad-magic error", err)
	}
	spliced := append(append([]byte(nil), streamMagic[:]...), legacy[8:]...)
	if _, err := Read(bytes.NewReader(spliced)); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("IEEE-checksummed chunks under the v2 magic: %v, want ErrChunkCorrupt", err)
	}
	if _, _, _, err := DecodeChunk(spliced[firstChunk:], 4); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("DecodeChunk of an IEEE-checksummed chunk: %v, want ErrChunkCorrupt", err)
	}
}

// TestDecodeChunkMatchesReadChunk pins the zero-copy decoder to the
// reader: same frames from the same bytes, same consumed count, and
// the same truncation taxonomy (io.EOF when empty, ErrUnexpectedEOF
// when torn, ErrChunkCorrupt on a flipped CRC).
func TestDecodeChunkMatchesReadChunk(t *testing.T) {
	prob := conformanceProblem()
	frames := FramesFromProblem(prob)
	n := prob.WindowN
	var buf bytes.Buffer
	if err := WriteFrameChunk(&buf, n, frames); err != nil {
		t.Fatal(err)
	}
	if err := WriteEOFChunk(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	viaReader, eof, err := ReadChunk(bytes.NewReader(raw), n)
	if err != nil || eof {
		t.Fatalf("ReadChunk: eof %v, err %v", eof, err)
	}
	direct, eof, consumed, err := DecodeChunk(raw, n)
	if err != nil || eof {
		t.Fatalf("DecodeChunk: eof %v, err %v", eof, err)
	}
	if len(direct) != len(viaReader) {
		t.Fatalf("DecodeChunk returned %d frames, ReadChunk %d", len(direct), len(viaReader))
	}
	for i := range direct {
		if direct[i].Loc != viaReader[i].Loc || !bytes.Equal(
			wire.AppendFloat64s(nil, direct[i].Meas.Data),
			wire.AppendFloat64s(nil, viaReader[i].Meas.Data)) {
			t.Fatalf("frame %d differs between decoders", i)
		}
	}
	_, eof, tail, err := DecodeChunk(raw[consumed:], n)
	if err != nil || !eof {
		t.Fatalf("EOF chunk: eof %v, err %v", eof, err)
	}
	if consumed+tail != len(raw) {
		t.Fatalf("consumed %d+%d of %d bytes", consumed, tail, len(raw))
	}

	if _, _, _, err := DecodeChunk(nil, n); err != io.EOF {
		t.Fatalf("empty buffer: %v, want io.EOF", err)
	}
	if _, _, _, err := DecodeChunk(raw[:consumed/2], n); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn buffer: %v, want ErrUnexpectedEOF", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[consumed-6] ^= 0x01 // payload byte under the chunk CRC
	if _, _, _, err := DecodeChunk(flipped, n); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("flipped payload: %v, want ErrChunkCorrupt", err)
	}
}

// TestChunkCodecAllocs is the allocation-budget guard for the stream
// hot path: a warm ChunkEncoder writes with zero allocations, and a
// warm ChunkDecoder spends at most the three slices the decoded frames
// own (budget 8 leaves slack for toolchain drift, per the BENCH gate).
func TestChunkCodecAllocs(t *testing.T) {
	prob := conformanceProblem()
	frames := FramesFromProblem(prob)
	windowN := prob.WindowN

	enc := new(ChunkEncoder)
	if err := enc.WriteFrameChunk(io.Discard, windowN, frames); err != nil {
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(100, func() {
		if err := enc.WriteFrameChunk(io.Discard, windowN, frames); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 0 {
		t.Errorf("warm ChunkEncoder.WriteFrameChunk: %.0f allocs/op, budget 0", encAllocs)
	}

	var chunk bytes.Buffer
	if err := enc.WriteFrameChunk(&chunk, windowN, frames); err != nil {
		t.Fatal(err)
	}
	raw := chunk.Bytes()
	dec := new(ChunkDecoder)
	r := bytes.NewReader(raw)
	if _, _, err := dec.ReadChunk(r, windowN); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, _, err := dec.ReadChunk(r, windowN); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 8 {
		t.Errorf("warm ChunkDecoder.ReadChunk: %.0f allocs/op, budget 8", decAllocs)
	}
}
