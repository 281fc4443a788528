package dataio

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

func sampleProblem(t testing.TB, slices int) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: 3, Rows: 3, StepPix: 5, RadiusPix: 6, MarginPix: 10, Jitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, slices, 9)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func TestRoundTripMultiSlice(t *testing.T) {
	prob := sampleProblem(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WindowN != prob.WindowN || got.Slices != prob.Slices {
		t.Fatalf("header mismatch: %d/%d", got.WindowN, got.Slices)
	}
	if got.Pattern.N() != prob.Pattern.N() {
		t.Fatal("location count mismatch")
	}
	for i, l := range prob.Pattern.Locations {
		if got.Pattern.Locations[i] != l {
			t.Fatalf("location %d mismatch: %+v vs %+v", i, got.Pattern.Locations[i], l)
		}
	}
	if got.Probe.MaxDiff(prob.Probe) > 0 {
		t.Fatal("probe mismatch")
	}
	if got.Prop == nil || got.Prop.MaxDiff(prob.Prop) > 0 {
		t.Fatal("propagator mismatch")
	}
	for i := range prob.Meas {
		if got.Meas[i].MaxDiff(prob.Meas[i]) > 0 {
			t.Fatalf("measurement %d mismatch", i)
		}
	}
	// The loaded problem must reconstruct identically.
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	a, err := solver.Reconstruct(prob, init.Slices, solver.Options{StepSize: 0.02, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solver.Reconstruct(got, init.Slices, solver.Options{StepSize: 0.02, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices[0].MaxDiff(b.Slices[0]) > 0 {
		t.Fatal("reconstruction from loaded data differs")
	}
}

func TestRoundTripSingleSliceNoProp(t *testing.T) {
	prob := sampleProblem(t, 1)
	if prob.Prop != nil {
		t.Fatal("test premise: single slice has no propagator")
	}
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prop != nil {
		t.Fatal("propagator should be absent")
	}
}

func TestFileRoundTrip(t *testing.T) {
	prob := sampleProblem(t, 2)
	path := filepath.Join(t.TempDir(), "ds.ptycho")
	if err := WriteFile(path, prob); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern.N() != prob.Pattern.N() {
		t.Fatal("mismatch after file round trip")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTPTYCHOxxxxxxxxxxxxxxxxxxx"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("got %v", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	prob := sampleProblem(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Inside the opening: rejected.
	for _, cut := range []int{4, 10, 100} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// After it: a dataset that stops short of its 'E' chunk — mid-chunk,
	// between chunks, inside the 'E' — is io.ErrUnexpectedEOF.
	eof := len(data) - wire.ChunkOverhead
	for _, cut := range []int{len(data) / 2, eof, eof + 5, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(data), err)
		}
	}
}

func TestReadRejectsImplausibleHeader(t *testing.T) {
	prob := sampleProblem(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt windowN (first header int64, little-endian at offset 8).
	data[8] = 0xFF
	data[9] = 0xFF
	data[10] = 0xFF
	data[11] = 0x7F
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible header accepted")
	}
}

func TestWriteRejectsInvalidProblem(t *testing.T) {
	prob := sampleProblem(t, 1)
	prob.Meas = prob.Meas[:2] // break invariant
	var buf bytes.Buffer
	if err := Write(&buf, prob); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// TestReadAllocatesTheProblemOnly bounds what decoding a dataset costs
// beyond the arrays it returns: Read used to allocate a temporary the
// size of every measurement and location it moved (2x the dataset in
// all). What is left is the probe/propagator staging, each chunk's
// frame list and the chunk decoder's payload scratch — pooled, so
// warmed by one Read before the measured one — under 10 % on a dataset
// of any real size.
func TestReadAllocatesTheProblemOnly(t *testing.T) {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 12, Rows: 12, StepPix: 5, RadiusPix: 6, MarginPix: 10})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 9), WindowN: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	n2 := prob.WindowN * prob.WindowN
	decoded := pat.N()*(8*n2+int(unsafe.Sizeof(scan.Location{}))) + 2*16*n2

	// One P and no GC: the pool hands the warmed scratch straight back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(r); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(decoded) {
		t.Errorf("Read allocated %d B for %d B of decoded arrays (%.2fx, budget 1.1x)",
			got, decoded, float64(got)/float64(decoded))
	}
}

// TestCutShardIsTheEncodedShard: the shard CutShard cuts from a spool,
// whatever the spool's chunking, is byte for byte the closed stream of
// the chosen frames Write's own primitives encode — the opening from the
// header, ChunkFrames to a chunk — and reading stops after the last
// chosen frame. A spool torn or flipped under the cut is a typed error.
func TestCutShardIsTheEncodedShard(t *testing.T) {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 5, Rows: 5, StepPix: 12, RadiusPix: 16, MarginPix: 32})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 3), WindowN: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, hdr := prob.WindowN, HeaderFromProblem(prob)
	spool := writeChunked(t, prob, 3)
	all := FramesFromProblem(prob)
	for _, positions := range [][]int{{0, 2, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20}, {24}, nil} {
		var want bytes.Buffer
		err := WriteStreamHeader(&want, hdr)
		var chosen []Frame
		for _, p := range positions {
			chosen = append(chosen, all[p])
		}
		for lo := 0; err == nil && lo < len(chosen); lo += ChunkFrames(n) {
			err = WriteFrameChunk(&want, n, chosen[lo:min(lo+ChunkFrames(n), len(chosen))])
		}
		if err == nil {
			err = WriteEOFChunk(&want)
		}
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(spool)
		var got bytes.Buffer
		if err := CutShard(&got, src, positions); err != nil {
			t.Fatalf("positions %v: %v", positions, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("positions %v: cut %d bytes, not the %d-byte encoded shard", positions, got.Len(), want.Len())
		}
		if len(positions) > 0 && positions[len(positions)-1] < 20 && src.Len() == 0 {
			t.Errorf("positions %v: the cut read the spool to its end", positions)
		}
	}

	flipped := bytes.Clone(spool)
	flipped[len(flipped)-wire.ChunkOverhead-100] ^= 1 // under the last 'F' chunk's CRC
	for name, tc := range map[string]struct {
		spool []byte
		want  error
	}{
		"torn":    {spool[:len(spool)/2], io.ErrUnexpectedEOF},
		"flipped": {flipped, ErrChunkCorrupt},
	} {
		if err := CutShard(io.Discard, bytes.NewReader(tc.spool), []int{24}); !errors.Is(err, tc.want) {
			t.Errorf("%s spool: %v, want %v", name, err, tc.want)
		}
	}
}
