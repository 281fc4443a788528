package dataio

import (
	"bytes"
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire/wiretest"
)

// FuzzRead hammers the dataset decoder with arbitrary bytes: it must
// never panic and never return a problem that fails validation. Seeds
// include a valid file, its prefix truncations, and bit flips.
func FuzzRead(f *testing.F) {
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
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("PTYCHOv1"))
	f.Add([]byte{})
	// Oversized-header seeds: each header field pushed past the
	// ErrHeaderBounds caps (and negative), with the full valid payload
	// still attached — the reader must reject on the header alone.
	f.Add(patchInt64(valid, 8, 1<<40))  // windowN huge
	f.Add(patchInt64(valid, 8, -1))     // windowN negative
	f.Add(patchInt64(valid, 16, 1<<40)) // slices huge
	f.Add(patchInt64(valid, 24, 1<<40)) // imageW huge
	f.Add(patchInt64(valid, 32, -7))    // imageH negative
	f.Add(patchInt64(valid, 40, 1<<40)) // numLocations huge

	f.Fuzz(func(t *testing.T, data []byte) {
		prob, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := prob.Validate(); verr != nil {
			t.Fatalf("Read accepted a problem that fails validation: %v", verr)
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
	f.Add(append([]byte("PTYCHOv1"), valid[8:]...))
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

// FuzzReadStream hammers the PTYCHSv2 replay path: header decoding,
// chunk framing, CRC verification, and the append loop must never
// panic and never return a problem that fails validation. Seeds cover
// a valid stream, truncations at every structural boundary, CRC and
// kind corruption, and oversized headers.
func FuzzReadStream(f *testing.F) {
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
	var buf bytes.Buffer
	if err := WriteStream(&buf, prob, 2); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	headerEnd := 8 + 8*8 + 2*8*8*8 // magic + header + probe (single slice: no prop)

	f.Add(valid)
	f.Add([]byte("PTYCHSv1"))
	f.Add([]byte{})
	f.Add(valid[:headerEnd])            // header only, no chunks
	f.Add(valid[:headerEnd+1])          // cut after a chunk kind byte
	f.Add(valid[:headerEnd+5])          // cut inside a chunk length
	f.Add(valid[:len(valid)-3])         // cut inside the EOF marker
	f.Add(patchInt64(valid, 8, 1<<40))  // windowN past the cap
	f.Add(patchInt64(valid, 16, -1))    // slices negative
	f.Add(patchInt64(valid, 24, 1<<40)) // imageW past the cap
	crcFlip := append([]byte(nil), valid...)
	crcFlip[headerEnd+30] ^= 0x01 // payload bit: CRC must catch it
	f.Add(crcFlip)
	kindFlip := append([]byte(nil), valid...)
	kindFlip[headerEnd] = 'Z'
	f.Add(kindFlip)
	// The shared framing-attack corpus, anchored on the first chunk's
	// length field — the same mutations the transport and WAL fuzzers
	// rehearse, so a defense added in one decoder is tested in all.
	for _, m := range wiretest.Mutations(valid, headerEnd+1) {
		f.Add(m)
	}
	// The frozen IEEE-framed PTYCHSv1 fixture and its mutations, as is
	// and under the current magic: every one must be rejected.
	legacy, firstChunk := legacyStream(f)
	f.Add(legacy)
	for _, m := range wiretest.Mutations(legacy, firstChunk+1) {
		f.Add(append(append([]byte(nil), streamMagic[:]...), m[8:]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		prob, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := prob.Validate(); verr != nil {
			t.Fatalf("ReadStream accepted a problem that fails validation: %v", verr)
		}
	})
}
