// Package dataio defines the binary formats of the data plane. A
// dataset — scan pattern, probe wavefunction, propagator and
// per-location diffraction amplitudes — has one container, the PTYCHSv2
// stream (stream.go): an opening with the geometry and probe, then
// CRC-framed chunks of frames, then an end marker. A writer never seeks
// back: an acquisition still running is an open stream, fed and
// journaled chunk by chunk; a batch dataset is a closed one, written by
// Write and read back by Read. OBJCKv1 (object.go) holds a
// reconstructed object.
//
// The complete byte-level specification of both, together with the
// grid transport's PTGW wire frames, lives in docs/FORMATS.md.
package dataio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"ptychopath/internal/grid"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

// ErrHeaderBounds is returned by every reader in this package when a
// header declares dimensions outside the decoder's resource caps —
// frame (window) size, slice count, image extent, scan step and probe
// radius, frames per chunk. The check runs BEFORE any payload-sized
// allocation, so a hostile or corrupt header can never commit the
// process to multi-gigabyte buffers it will immediately throw away.
var ErrHeaderBounds = errors.New("dataio: header dimensions out of bounds")

// Decoder resource caps. Generous for any real acquisition, small
// enough that a header passing them cannot demand a problematic
// allocation up front. No dataset-wide location count is ever read:
// frames are allocated chunk by chunk as their bytes arrive.
const (
	maxWindowN  = 4096
	maxSlices   = 1 << 14
	maxImageDim = 1 << 20
)

// checkBounds holds the PTYCHS geometry fields to the caps. The step
// and radius, which travel as micro-pixel integers, are bounded by the
// image cap too, so every value that passes re-encodes exactly.
func (h *StreamHeader) checkBounds() error {
	switch {
	case h.WindowN <= 0 || h.WindowN > maxWindowN:
		return fmt.Errorf("%w: window %d (want 1..%d)", ErrHeaderBounds, h.WindowN, maxWindowN)
	case h.Slices <= 0 || h.Slices > maxSlices:
		return fmt.Errorf("%w: %d slices (want 1..%d)", ErrHeaderBounds, h.Slices, maxSlices)
	case h.ImageW <= 0 || h.ImageW > maxImageDim || h.ImageH <= 0 || h.ImageH > maxImageDim:
		return fmt.Errorf("%w: image %dx%d (want 1..%d per edge)", ErrHeaderBounds, h.ImageW, h.ImageH, maxImageDim)
	case !(h.StepPix >= 0 && h.StepPix <= maxImageDim && h.RadiusPix >= 0 && h.RadiusPix <= maxImageDim):
		return fmt.Errorf("%w: step %g, radius %g px (want 0..%d)", ErrHeaderBounds, h.StepPix, h.RadiusPix, maxImageDim)
	}
	return nil
}

// chunkBytes is the measurement payload a closed stream's 'F' chunk
// targets: large enough that framing and checksums are noise, and well
// under the grid transport's SHARD frame cap, so a rank's chunk travels
// as one frame.
const chunkBytes = 256 << 10

// ChunkFrames is how many frames of a windowN x windowN detector fill
// one chunk of a closed stream: chunkBytes of measurements, at least
// one frame.
func ChunkFrames(windowN int) int { return max(1, chunkBytes/(8*windowN*windowN)) }

// Write serializes a problem as a closed PTYCHSv2 stream: the opening,
// the frames in acquisition order, ChunkFrames to a chunk, then 'E'.
func Write(w io.Writer, prob *solver.Problem) error {
	if err := prob.Validate(); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	if err := WriteStreamHeader(w, HeaderFromProblem(prob)); err != nil {
		return err
	}
	frames := FramesFromProblem(prob)
	enc := chunkEncoders.Get().(*ChunkEncoder)
	defer chunkEncoders.Put(enc)
	n := ChunkFrames(prob.WindowN)
	for lo := 0; lo < len(frames); lo += n {
		if err := enc.WriteFrameChunk(w, prob.WindowN, frames[lo:min(lo+n, len(frames))]); err != nil {
			return err
		}
	}
	return WriteEOFChunk(w)
}

// Read decodes a closed PTYCHSv2 stream into a problem: the opening,
// then every chunk in order until 'E', through a pooled ChunkDecoder.
// Any chunking is accepted, not just Write's. A stream that stops
// before 'E' is io.ErrUnexpectedEOF — a batch dataset is complete or it
// is not one — and a byte after 'E' is ErrChunkCorrupt.
func Read(r io.Reader) (*solver.Problem, error) {
	h, locs, meas, err := scanStream(io.Discard, r, true)
	if err != nil {
		return nil, err
	}
	prob := h.NewProblem()
	prob.Pattern.Locations, prob.Meas = locs, meas
	return prob, nil
}

// Scan accepts exactly the streams Read accepts and passes every byte
// it has verified on to w: the opening once it parses, each chunk once
// its CRC and frame count check. It returns the opening and the scan
// locations in stream order, and decodes no measurement.
func Scan(w io.Writer, r io.Reader) (*StreamHeader, []scan.Location, error) {
	h, locs, _, err := scanStream(w, r, false)
	return h, locs, err
}

// scanStream is Read and Scan: the measurements are decoded only when
// meas is set.
func scanStream(w io.Writer, r io.Reader, meas bool) (*StreamHeader, []scan.Location, []*grid.Float2D, error) {
	// Exact-size reads straight from r; the opening is kept only for w.
	var opening bytes.Buffer
	hr := r
	if w != io.Discard {
		hr = io.TeeReader(r, &opening)
	}
	h, err := ReadStreamHeader(hr)
	if err != nil {
		return nil, nil, nil, err
	} else if _, err := w.Write(opening.Bytes()); err != nil {
		return nil, nil, nil, err
	}
	dec := chunkDecoders.Get().(*ChunkDecoder)
	defer chunkDecoders.Put(dec)
	img := grid.RectWH(0, 0, h.ImageW, h.ImageH)
	var chunks [][]Frame
	total := 0
	for {
		head, body, err := dec.readChunk(r, h.WindowN)
		if errors.Is(err, io.EOF) {
			return nil, nil, nil, fmt.Errorf("stream ends before its 'E' chunk: %w", io.ErrUnexpectedEOF)
		} else if err != nil {
			return nil, nil, nil, err
		}
		if head[0] == chunkFrames {
			frames, _, err := decodeFramePayload(body[:len(body)-4], h.WindowN, meas)
			if err != nil {
				return nil, nil, nil, err
			}
			for i, f := range frames {
				// Problem.AppendLocations' rule: no centre outside the image.
				if !img.Contains(int(math.Round(f.Loc.X)), int(math.Round(f.Loc.Y))) {
					return nil, nil, nil, fmt.Errorf("dataio: frame %d: centre (%g, %g) outside image %v", total+i, f.Loc.X, f.Loc.Y, img)
				}
			}
			chunks, total = append(chunks, frames), total+len(frames)
		}
		if _, err := w.Write(head[:]); err != nil {
			return nil, nil, nil, err
		} else if _, err := w.Write(body); err != nil {
			return nil, nil, nil, err
		} else if head[0] == chunkEOF {
			break
		}
	}
	var past [1]byte
	switch _, err := io.ReadFull(r, past[:]); {
	case err == nil:
		return nil, nil, nil, fmt.Errorf("%w: bytes after the 'E' chunk", ErrChunkCorrupt)
	case err != io.EOF:
		return nil, nil, nil, fmt.Errorf("dataio: reading past the 'E' chunk: %w", err)
	}
	// The lists are sized once, from the count 'E' settled.
	locs, ms := make([]scan.Location, 0, total), make([]*grid.Float2D, 0, total)
	for _, frames := range chunks {
		for _, f := range frames {
			locs, ms = append(locs, f.Loc), append(ms, f.Meas)
		}
	}
	return h, locs, ms, nil
}

// CutShard writes to w, as a closed stream, the frames of the closed
// stream src at the given strictly ascending stream positions: src's
// opening, re-encoded, then the frames' bytes as src holds them,
// ChunkFrames to a chunk, then 'E'. It verifies each chunk it reads,
// decodes no measurement, and stops after the last frame it cuts.
func CutShard(w io.Writer, src io.Reader, positions []int) error {
	hdr, err := ReadStreamHeader(src)
	if err != nil {
		return err
	} else if err := WriteStreamHeader(w, hdr); err != nil {
		return err
	}
	enc, dec := chunkEncoders.Get().(*ChunkEncoder), chunkDecoders.Get().(*ChunkDecoder)
	defer chunkEncoders.Put(enc)
	defer chunkDecoders.Put(dec)
	n, fb := hdr.WindowN, frameBytes(hdr.WindowN)
	frames, at := []byte(nil), 0 // unread frames of src's current chunk; the first's position
	for len(positions) > 0 {
		count := min(len(positions), ChunkFrames(n))
		buf, start := wire.BeginChunk(slices.Grow(enc.buf[:0], wire.ChunkOverhead+8+count*fb), chunkFrames)
		buf = wire.AppendInt64(buf, int64(count))
		for _, p := range positions[:count] {
			for (p-at)*fb >= len(frames) {
				at += len(frames) / fb
				head, body, err := dec.readChunk(src, n)
				if errors.Is(err, io.EOF) || err == nil && head[0] == chunkEOF {
					return fmt.Errorf("dataio: stream ends before frame %d: %w", p, io.ErrUnexpectedEOF)
				} else if err != nil {
					return err
				} else if _, _, err := decodeFramePayload(body[:len(body)-4], n, false); err != nil {
					return err
				}
				frames = body[8 : len(body)-4]
			}
			off := (p - at) * fb
			buf = append(buf, frames[off:off+fb]...)
			frames, at = frames[off+fb:], p+1
		}
		positions = positions[count:]
		enc.buf = wire.EndChunk(buf, start)
		if _, err := w.Write(enc.buf); err != nil {
			return err
		}
	}
	return WriteEOFChunk(w)
}

// WriteFile serializes a problem to the named file.
func WriteFile(path string, prob *solver.Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return Write(f, prob)
}

// ReadFile deserializes a problem from the named file.
func ReadFile(path string) (*solver.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return Read(f)
}
