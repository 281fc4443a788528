package dataio

import (
	"bytes"
	"fmt"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// fuzzProblem is the 2x2-scan, 8-pixel-window dataset the dataset
// fuzzers seed from.
func fuzzProblem(f *testing.F) *solver.Problem {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 2, Rows: 2, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		f.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	return prob
}

// fuzzHeaderEnd is where fuzzProblem's first chunk starts: magic,
// header and probe (one slice, so no propagator).
const fuzzHeaderEnd = 8 + 8*8 + 2*8*8*8

// streamSeeds is the stream corpus: fuzzProblem in 2-frame chunks,
// truncations at every structural boundary, CRC and kind corruption,
// oversized headers, the shared framing attacks, and the frozen
// IEEE-framed PTYCHSv1 fixture with its mutations.
func streamSeeds(f *testing.F) [][]byte {
	valid := writeChunked(f, fuzzProblem(f), 2)
	crcFlip := append([]byte(nil), valid...)
	crcFlip[fuzzHeaderEnd+30] ^= 0x01 // payload bit: CRC must catch it
	kindFlip := append([]byte(nil), valid...)
	kindFlip[fuzzHeaderEnd] = 'Z'
	seeds := [][]byte{
		valid,
		[]byte("PTYCHSv1"),
		{},
		valid[:fuzzHeaderEnd],        // header only, no chunks
		valid[:fuzzHeaderEnd+1],      // cut after a chunk kind byte
		valid[:fuzzHeaderEnd+5],      // cut inside a chunk length
		valid[:len(valid)-3],         // cut inside the EOF marker
		patchInt64(valid, 8, 1<<40),  // windowN past the cap
		patchInt64(valid, 16, -1),    // slices negative
		patchInt64(valid, 24, 1<<40), // imageW past the cap
		crcFlip,
		kindFlip,
	}
	// The shared framing-attack corpus, anchored on the first chunk's
	// length field — the same mutations the transport and WAL fuzzers
	// rehearse, so a defense added in one decoder is tested in all.
	seeds = append(seeds, wiretest.Mutations(valid, fuzzHeaderEnd+1)...)
	// The frozen IEEE-framed PTYCHSv1 fixture and its mutations, as is
	// and under the current magic: every one must be rejected.
	legacy, firstChunk := legacyStream(f)
	seeds = append(seeds, legacy)
	for _, m := range wiretest.Mutations(legacy, firstChunk+1) {
		seeds = append(seeds, append(append([]byte(nil), streamMagic[:]...), m[8:]...))
	}
	return seeds
}

// readSeeds is the closed-stream corpus: the retired PTYCHOv1 container
// (frozen; every one must be rejected), the stream corpus, and Write's
// own closed stream with its framing attacks, cut before 'E' and with a
// chunk after 'E'.
func readSeeds(f *testing.F) [][]byte {
	v1 := wiretest.Frozen(f, "ptycho_v1.golden")
	flipped := append([]byte(nil), v1...)
	flipped[9] ^= 0xFF
	seeds := [][]byte{
		v1, v1[:len(v1)/2], v1[:16], flipped, []byte("PTYCHOv1"), {},
		// Each PTYCHOv1 header field pushed past the caps (and negative),
		// with the full payload still attached.
		patchInt64(v1, 8, 1<<40),  // windowN huge
		patchInt64(v1, 8, -1),     // windowN negative
		patchInt64(v1, 16, 1<<40), // slices huge
		patchInt64(v1, 24, 1<<40), // imageW huge
		patchInt64(v1, 32, -7),    // imageH negative
		patchInt64(v1, 40, 1<<40), // numLocations huge
	}
	seeds = append(seeds, streamSeeds(f)...)
	var buf bytes.Buffer
	if err := Write(&buf, fuzzProblem(f)); err != nil {
		f.Fatal(err)
	}
	closed := buf.Bytes()
	seeds = append(seeds, wiretest.Mutations(closed, fuzzHeaderEnd+1)...)
	return append(seeds,
		closed[:len(closed)-wire.ChunkOverhead],                             // cut before 'E'
		append(closed[:len(closed):len(closed)], closed[fuzzHeaderEnd:]...)) // a chunk after 'E'
}

// FuzzRead hammers the one dataset decoder — the grid worker's shard,
// an in-process job's spool, ptychorecon's input — with arbitrary
// bytes: it must never panic, and a problem it accepts must validate
// and survive Write then Read unchanged.
func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prob, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := prob.Validate(); verr != nil {
			t.Fatalf("Read accepted a problem that fails validation: %v", verr)
		}
		var once, twice bytes.Buffer
		if err := Write(&once, prob); err != nil {
			t.Fatalf("Write of an accepted problem: %v", err)
		}
		again, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Read of Write's output: %v", err)
		}
		if err := Write(&twice, again); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Write then Read changed the problem (err %v)", err)
		}
	})
}

// FuzzScan holds the /v1 submit check to Read, on Read's corpus: Scan
// accepts exactly what Read accepts and then returns Read's opening
// and locations, having passed on the input byte for byte.
func FuzzScan(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prob, rerr := Read(bytes.NewReader(data))
		var passed bytes.Buffer
		h, locs, serr := Scan(&passed, bytes.NewReader(data))
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("Read: %v; Scan: %v", rerr, serr)
		} else if serr != nil {
			return
		}
		if !bytes.Equal(passed.Bytes(), data) {
			t.Fatalf("Scan passed on %d bytes of a %d-byte input, not the input", passed.Len(), len(data))
		}
		var want, got bytes.Buffer
		if err := WriteStreamHeader(&want, HeaderFromProblem(prob)); err != nil {
			t.Fatal(err)
		}
		if err := WriteStreamHeader(&got, h); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Scan's opening differs from Read's (err %v)", err)
		}
		// Printed, so a NaN radius compares equal to itself.
		if fmt.Sprint(locs) != fmt.Sprint(prob.Pattern.Locations) {
			t.Fatalf("Scan's %d locations differ from Read's %d", len(locs), prob.Pattern.N())
		}
	})
}

// FuzzReadObject does the same for the checkpoint decoder. The seed
// corpus covers the OBJCKv1 magic and truncation taxonomy: bare magic,
// magic with a corrupted byte, cuts inside the magic, inside each header
// field, at the header/payload boundary, and mid-slice.
func FuzzReadObject(f *testing.F) {
	obj := phantom.RandomObject(8, 8, 2, 2)
	var buf bytes.Buffer
	if err := WriteObject(&buf, obj.Slices); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte("OBJCKv1\x00"))
	f.Add([]byte{})
	// Magic cases: truncated mid-magic, wrong version byte, wrong
	// terminator, dataset magic in an object file.
	f.Add(valid[:3])
	f.Add(valid[:7])
	wrongVer := append([]byte(nil), valid...)
	wrongVer[6] = '2' // "OBJCKv2"
	f.Add(wrongVer)
	wrongTerm := append([]byte(nil), valid...)
	wrongTerm[7] = 0xFF
	f.Add(wrongTerm)
	f.Add(append(streamMagic[:8:8], valid[8:]...))
	// Header truncations: cut inside each of the 5 int64 fields.
	for i := 0; i < 5; i++ {
		f.Add(valid[: 8+8*i+4 : 8+8*i+4])
	}
	// Header lies: slice count far beyond the payload, zero/negative
	// dimensions, and fields past the ErrHeaderBounds caps.
	hugeSlices := append([]byte(nil), valid...)
	hugeSlices[8] = 0xFF // slices int64 LSB
	f.Add(hugeSlices)
	f.Add(patchInt64(valid, 8, 1<<40))  // slices past the cap
	f.Add(patchInt64(valid, 32, 1<<40)) // w past the cap
	f.Add(patchInt64(valid, 40, -2))    // h negative
	zeroW := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		zeroW[8+3*8+i] = 0 // w field
	}
	f.Add(zeroW)
	// Payload truncations: exactly at the header end, mid first slice,
	// between slices, and one byte short of complete.
	f.Add(valid[:8+5*8])
	f.Add(valid[:8+5*8+7])
	f.Add(valid[:8+5*8+2*8*8*8]) // after slice 0 of 2
	f.Add(valid[:len(valid)-1])
	// A region encoded in place, as grid ranks and warm starts send it.
	region, err := AppendObjectRegion(nil, obj.Slices, grid.NewRect(1, 2, 7, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(region)

	f.Fuzz(func(t *testing.T, data []byte) {
		slices, err := ReadObject(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range slices {
			if s == nil || len(s.Data) != s.Bounds.Area() {
				t.Fatal("decoder returned inconsistent slice")
			}
		}
	})
}

// FuzzReadStream hammers the open-stream path — the opening, then
// chunk after chunk until the reader runs dry, as the job journal's
// replay and the frames endpoint read it — with the stream corpus. A
// missing 'E' is no error there; a panic is, and so is a problem that
// fails validation after every accepted chunk was folded in through
// Problem.AppendLocations, as the streaming engine folds them.
func FuzzReadStream(f *testing.F) {
	for _, seed := range streamSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadStreamHeader(r)
		if err != nil {
			return
		}
		prob := h.NewProblem()
		for {
			frames, eof, err := ReadChunk(r, h.WindowN)
			if err != nil || eof {
				break
			}
			locs := make([]scan.Location, len(frames))
			meas := make([]*grid.Float2D, len(frames))
			for i, fr := range frames {
				locs[i], meas[i] = fr.Loc, fr.Meas
			}
			if err := prob.AppendLocations(locs, meas); err != nil {
				break // a location outside the image: the engine refuses it too
			}
		}
		if err := prob.Validate(); err != nil {
			t.Fatalf("accepted chunks fold into a problem that fails validation: %v", err)
		}
	})
}
