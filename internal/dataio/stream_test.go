package dataio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

func streamTestProblem(t testing.TB, slices int) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 3, Rows: 3, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, slices, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// writeChunked writes prob as a closed stream in chunks of k frames:
// the primitives Write is built from, with any chunking.
func writeChunked(t testing.TB, prob *solver.Problem, k int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := WriteStreamHeader(&buf, HeaderFromProblem(prob))
	frames := FramesFromProblem(prob)
	for lo := 0; err == nil && lo < len(frames); lo += k {
		err = WriteFrameChunk(&buf, prob.WindowN, frames[lo:min(lo+k, len(frames))])
	}
	if err == nil {
		err = WriteEOFChunk(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamRoundTrip checks the core PTYCHSv2 guarantee: a dataset
// written as header + chunked frames + EOF reads back into a problem
// bit-identical to the original — whatever the chunking, since a
// stream journaled frame by frame is a dataset too.
func TestStreamRoundTrip(t *testing.T) {
	for _, slices := range []int{1, 2} {
		prob := streamTestProblem(t, slices)
		got, err := Read(bytes.NewReader(writeChunked(t, prob, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if got.WindowN != prob.WindowN || got.Slices != prob.Slices {
			t.Fatalf("geometry: got window %d slices %d", got.WindowN, got.Slices)
		}
		if got.Pattern.N() != prob.Pattern.N() {
			t.Fatalf("locations: got %d want %d", got.Pattern.N(), prob.Pattern.N())
		}
		if !got.Pattern.Bounds().Eq(prob.Pattern.Bounds()) {
			t.Fatalf("image bounds: got %v want %v", got.Pattern.Bounds(), prob.Pattern.Bounds())
		}
		for i, l := range got.Pattern.Locations {
			if l != prob.Pattern.Locations[i] {
				t.Fatalf("location %d: got %+v want %+v", i, l, prob.Pattern.Locations[i])
			}
		}
		for i, m := range got.Meas {
			for k, v := range m.Data {
				if v != prob.Meas[i].Data[k] {
					t.Fatalf("measurement %d pixel %d: got %v want %v", i, k, v, prob.Meas[i].Data[k])
				}
			}
		}
		if md := got.Probe.MaxDiff(prob.Probe); md != 0 {
			t.Fatalf("probe differs by %g", md)
		}
		if (got.Prop == nil) != (prob.Prop == nil) {
			t.Fatalf("propagator presence: got %v want %v", got.Prop != nil, prob.Prop != nil)
		}
		// And Write re-chunks it into the very bytes of the original.
		var a, b bytes.Buffer
		if err := errors.Join(Write(&a, prob), Write(&b, got)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("the dataset read back does not write the original's bytes")
		}
	}
}

// TestStreamTruncatedKeepsPrefix: a stream cut mid-acquisition (no 'E')
// is an open stream. The chunk reader — the journal replay and the
// frames endpoint — yields the frames that fully arrived, then io.EOF;
// Read, which wants a closed dataset, refuses it as
// io.ErrUnexpectedEOF.
func TestStreamTruncatedKeepsPrefix(t *testing.T) {
	prob := streamTestProblem(t, 1)
	var open bytes.Buffer
	if err := WriteStreamHeader(&open, HeaderFromProblem(prob)); err != nil {
		t.Fatal(err)
	}
	frames := FramesFromProblem(prob)
	if err := WriteFrameChunk(&open, prob.WindowN, frames[:4]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(open.Bytes()))
	h, err := ReadStreamHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	got, eof, err := ReadChunk(br, h.WindowN)
	if err != nil || eof || len(got) != 4 {
		t.Fatalf("first chunk: %d frames, eof %v, err %v; want the 4 that arrived", len(got), eof, err)
	}
	if _, _, err := ReadChunk(br, h.WindowN); err != io.EOF {
		t.Fatalf("after the prefix: %v, want io.EOF", err)
	}
	if _, err := Read(bytes.NewReader(open.Bytes())); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read of an open stream: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestChunkCorruptionDetected: a payload bit flip fails the CRC with
// the typed error; a length lie fails before any interpretation.
func TestChunkCorruptionDetected(t *testing.T) {
	prob := streamTestProblem(t, 1)
	frames := FramesFromProblem(prob)
	var buf bytes.Buffer
	if err := WriteFrameChunk(&buf, prob.WindowN, frames[:2]); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flip := append([]byte(nil), raw...)
	flip[20] ^= 0xFF // inside the payload
	if _, _, err := ReadChunk(bytes.NewReader(flip), prob.WindowN); !errors.Is(err, ErrChunkCorrupt) {
		t.Errorf("payload flip: got %v, want ErrChunkCorrupt", err)
	}

	// Length that is not 8 + k*frameBytes.
	lie := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(lie[1:9], uint64(len(raw))+3)
	if _, _, err := ReadChunk(bytes.NewReader(lie), prob.WindowN); !errors.Is(err, ErrChunkCorrupt) {
		t.Errorf("length lie: got %v, want ErrChunkCorrupt", err)
	}

	// A huge declared frame count is a bounds error before allocation.
	huge := append([]byte(nil), raw...)
	fb := uint64(frameBytes(prob.WindowN))
	binary.LittleEndian.PutUint64(huge[1:9], 8+(maxChunkFrames+1)*fb)
	if _, _, err := ReadChunk(bytes.NewReader(huge), prob.WindowN); !errors.Is(err, ErrHeaderBounds) {
		t.Errorf("huge count: got %v, want ErrHeaderBounds", err)
	}

	// A valid-shaped length far beyond the actual body must fail at
	// EOF without allocating the declared size (the decoder grows its
	// buffer only as bytes actually arrive).
	lying := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(lying[1:9], 8+1_000_000*fb) // ~0.5 GB declared, ~70 KB present
	if _, _, err := ReadChunk(bytes.NewReader(lying), prob.WindowN); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("lying length: got %v, want a payload read error", err)
	}

	// Unknown chunk kind.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, _, err := ReadChunk(bytes.NewReader(bad), prob.WindowN); !errors.Is(err, ErrChunkCorrupt) {
		t.Errorf("unknown kind: got %v, want ErrChunkCorrupt", err)
	}

	// Exhausted reader reports io.EOF so pollers can distinguish
	// "no chunk yet" from corruption.
	if _, _, err := ReadChunk(bytes.NewReader(nil), prob.WindowN); !errors.Is(err, io.EOF) {
		t.Errorf("empty reader: got %v, want io.EOF", err)
	}

	// EOF marker round-trips.
	var eofBuf bytes.Buffer
	if err := WriteEOFChunk(&eofBuf); err != nil {
		t.Fatal(err)
	}
	if _, eof, err := ReadChunk(bytes.NewReader(eofBuf.Bytes()), prob.WindowN); err != nil || !eof {
		t.Errorf("EOF chunk: eof=%v err=%v", eof, err)
	}

	// A closed stream ends at its 'E': a chunk or a stray byte after it
	// is corruption, not more data.
	closed := writeChunked(t, prob, 2)
	for name, tail := range map[string][]byte{"chunk after 'E'": raw, "byte after 'E'": {0}} {
		stream := append(closed[:len(closed):len(closed)], tail...)
		if _, err := Read(bytes.NewReader(stream)); !errors.Is(err, ErrChunkCorrupt) {
			t.Errorf("%s: got %v, want ErrChunkCorrupt", name, err)
		}
	}
}

// patchInt64 overwrites the little-endian int64 at byte offset off.
func patchInt64(data []byte, off int, v int64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[off:off+8], uint64(v))
	return out
}

// TestHeaderBoundsTyped: absurd header dimensions in every container
// fail with a typed error before the decoder allocates for the payload.
func TestHeaderBoundsTyped(t *testing.T) {
	prob := streamTestProblem(t, 2)

	// PTYCHSv2: header starts at byte 8; fields windowN, slices, imageW,
	// imageH, hasProp, step and radius (micro-pixels). The stream carries
	// no dataset-wide location count: its place is taken by each chunk's
	// length field, whose frame count is capped before the payload is
	// read.
	dsRaw := writeChunked(t, prob, 2)
	for name, patched := range map[string][]byte{
		"windowN huge": patchInt64(dsRaw, 8, 1<<40),
		"windowN zero": patchInt64(dsRaw, 8, 0),
		"slices huge":  patchInt64(dsRaw, 16, 1<<40),
		"slices zero":  patchInt64(dsRaw, 16, 0),
		"imageW huge":  patchInt64(dsRaw, 24, 1<<40),
		"imageH neg":   patchInt64(dsRaw, 32, -3),
		"step huge":    patchInt64(dsRaw, 48, math.MaxInt64),
		"radius neg":   patchInt64(dsRaw, 56, -1),
	} {
		if _, err := Read(bytes.NewReader(patched)); !errors.Is(err, ErrHeaderBounds) {
			t.Errorf("PTYCHSv2 %s: got %v, want ErrHeaderBounds", name, err)
		}
		if _, err := ReadStreamHeader(bytes.NewReader(patched)); !errors.Is(err, ErrHeaderBounds) {
			t.Errorf("PTYCHSv2 opening %s: got %v, want ErrHeaderBounds", name, err)
		}
	}
	firstLen := 8 + 8*8 + 2*2*8*prob.WindowN*prob.WindowN + 1 // magic, header, probe, prop, kind
	fb := int64(frameBytes(prob.WindowN))
	if _, err := Read(bytes.NewReader(patchInt64(dsRaw, firstLen, 8+(maxChunkFrames+1)*fb))); !errors.Is(err, ErrHeaderBounds) {
		t.Errorf("PTYCHSv2 chunk frame count past the cap: got %v, want ErrHeaderBounds", err)
	}
	if _, err := Read(bytes.NewReader(patchInt64(dsRaw, firstLen, -1))); !errors.Is(err, ErrChunkCorrupt) {
		t.Errorf("PTYCHSv2 negative chunk length: got %v, want ErrChunkCorrupt", err)
	}

	// OBJCKv1: header starts at byte 8; fields slices, x0, y0, w, h.
	var ob bytes.Buffer
	if err := WriteObject(&ob, phantom.RandomObject(8, 8, 2, 2).Slices); err != nil {
		t.Fatal(err)
	}
	obRaw := ob.Bytes()
	for name, patched := range map[string][]byte{
		"slices huge": patchInt64(obRaw, 8, 1<<40),
		"w huge":      patchInt64(obRaw, 32, 1<<40),
		"h zero":      patchInt64(obRaw, 40, 0),
	} {
		if _, err := ReadObject(bytes.NewReader(patched)); !errors.Is(err, ErrHeaderBounds) {
			t.Errorf("OBJCKv1 %s: got %v, want ErrHeaderBounds", name, err)
		}
	}
}
