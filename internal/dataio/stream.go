package dataio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"ptychopath/internal/grid"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

// PTYCHSv2, the dataset container (see the package comment). The
// opening carries everything the streaming engine needs to open a job
// before a single diffraction pattern exists. Layout (little-endian):
//
//	magic   [8]byte  "PTYCHSv2"
//	header  8 x int64: windowN, slices, imageW, imageH, hasProp (0/1),
//	                   stepPix*1e6, radiusPix*1e6, reserved
//	probe   2*windowN^2 float64 (re, im interleaved)
//	prop    2*windowN^2 float64 (present when hasProp == 1)
//	chunks  any number of:
//	        kind    [1]byte: 'F' (frames) or 'E' (end of stream)
//	        length  int64: payload byte count
//	        payload length bytes
//	        crc     uint32: CRC-32 (Castagnoli) of the payload
//
// An 'F' payload is int64 count followed by count frames, each
// int64 index, float64 x, y, radius, then windowN^2 float64
// amplitudes. An 'E' payload is empty; it marks a cleanly closed
// acquisition. Chunks after 'E' are an error.
//
// The version in the magic names the chunk checksum: a "PTYCHSv1"
// stream (IEEE CRC-32) is a bad magic, and an IEEE-checksummed chunk
// under any magic is a corrupt chunk.
// Full byte-level spec with worked offsets: docs/FORMATS.md.

var streamMagic = [8]byte{'P', 'T', 'Y', 'C', 'H', 'S', 'v', '2'}

// Chunk kind bytes.
const (
	chunkFrames = 'F'
	chunkEOF    = 'E'
)

// maxChunkFrames bounds the frame count a single chunk may declare.
const maxChunkFrames = 1 << 20

// ErrChunkCorrupt is returned when a chunk's CRC does not match its
// payload, or the payload length disagrees with its declared frame
// count — the stream was torn or tampered with in transit.
var ErrChunkCorrupt = errors.New("dataio: stream chunk corrupt")

// StreamHeader is the metadata a PTYCHSv2 stream opens with: the full
// acquisition geometry, but no frames.
type StreamHeader struct {
	WindowN int
	Slices  int
	ImageW  int
	ImageH  int
	StepPix float64
	// RadiusPix is the probe circle radius in pixels.
	RadiusPix float64
	Probe     *grid.Complex2D
	// Prop is the inter-slice propagator; nil in single-slice mode.
	Prop *grid.Complex2D
}

// Validate reports structural problems with the header.
func (h *StreamHeader) Validate() error {
	if err := h.checkBounds(); err != nil {
		return err
	}
	if h.Probe == nil || h.Probe.W() != h.WindowN || h.Probe.H() != h.WindowN {
		return fmt.Errorf("dataio: stream probe must be %dx%d", h.WindowN, h.WindowN)
	}
	if h.Prop != nil && (h.Prop.W() != h.WindowN || h.Prop.H() != h.WindowN) {
		return fmt.Errorf("dataio: stream propagator must be %dx%d", h.WindowN, h.WindowN)
	}
	return nil
}

// NewProblem returns an empty (zero-location) solver.Problem with the
// header's geometry — the seed the streaming engine grows with
// Problem.AppendLocations as frames arrive.
func (h *StreamHeader) NewProblem() *solver.Problem {
	return &solver.Problem{
		Pattern: &scan.Pattern{
			ImageW: h.ImageW, ImageH: h.ImageH,
			StepPix: h.StepPix, RadiusPix: h.RadiusPix,
		},
		Probe:   h.Probe,
		Prop:    h.Prop,
		WindowN: h.WindowN,
		Slices:  h.Slices,
	}
}

// HeaderFromProblem derives the stream header of an existing dataset —
// what ptychofeed sends before replaying the frames.
func HeaderFromProblem(prob *solver.Problem) *StreamHeader {
	return &StreamHeader{
		WindowN: prob.WindowN, Slices: prob.Slices,
		ImageW: prob.Pattern.ImageW, ImageH: prob.Pattern.ImageH,
		StepPix: prob.Pattern.StepPix, RadiusPix: prob.Pattern.RadiusPix,
		Probe: prob.Probe, Prop: prob.Prop,
	}
}

// Frame is one acquired diffraction pattern: where the probe was and
// what the detector measured.
type Frame struct {
	Loc  scan.Location
	Meas *grid.Float2D
}

// WriteStreamHeader serializes the stream opening (magic, header,
// probe, propagator) to w, in one Write.
func WriteStreamHeader(w io.Writer, h *StreamHeader) error {
	if err := h.Validate(); err != nil {
		return err
	}
	hasProp := int64(0)
	if h.Prop != nil {
		hasProp = 1
	}
	buf := append(make([]byte, 0, 8+8*8+2*16*len(h.Probe.Data)), streamMagic[:]...)
	for _, v := range []int64{
		int64(h.WindowN), int64(h.Slices),
		int64(h.ImageW), int64(h.ImageH), hasProp,
		int64(math.Round(h.StepPix * 1e6)),
		int64(math.Round(h.RadiusPix * 1e6)),
		0,
	} {
		buf = wire.AppendInt64(buf, v)
	}
	buf = wire.AppendComplex128s(buf, h.Probe.Data)
	if h.Prop != nil {
		buf = wire.AppendComplex128s(buf, h.Prop.Data)
	}
	_, err := w.Write(buf)
	return err
}

// ReadStreamHeader deserializes the stream opening from r. Like
// ReadChunk it reads exact sizes and nothing past the opening, so the
// caller reads the chunks from r next.
func ReadStreamHeader(r io.Reader) (*StreamHeader, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("dataio: reading stream magic: %w", err)
	}
	if m != streamMagic {
		return nil, fmt.Errorf("dataio: bad magic %q (not a PTYCHSv2 stream)", m)
	}
	header := make([]int64, 8)
	if err := binary.Read(r, binary.LittleEndian, header); err != nil {
		return nil, fmt.Errorf("dataio: reading stream header: %w", err)
	}
	h := &StreamHeader{
		WindowN: int(header[0]), Slices: int(header[1]),
		ImageW: int(header[2]), ImageH: int(header[3]),
		StepPix:   float64(header[5]) / 1e6,
		RadiusPix: float64(header[6]) / 1e6,
	}
	// Bounds before the probe-sized allocations below.
	if err := h.checkBounds(); err != nil {
		return nil, err
	}
	var err error
	if h.Probe, err = readComplex(r, h.WindowN); err != nil {
		return nil, fmt.Errorf("dataio: reading stream probe: %w", err)
	}
	if header[4] == 1 {
		if h.Prop, err = readComplex(r, h.WindowN); err != nil {
			return nil, fmt.Errorf("dataio: reading stream propagator: %w", err)
		}
	}
	return h, nil
}

func readComplex(r io.Reader, n int) (*grid.Complex2D, error) {
	buf := make([]byte, 16*n*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	a := grid.NewComplex2DSize(n, n)
	wire.Complex128s(a.Data, buf)
	return a, nil
}

// frameBytes is the encoded size of one frame for the given window.
func frameBytes(windowN int) int { return 8 + 3*8 + 8*windowN*windowN }

// ChunkEncoder owns the scratch buffer a chunk is framed in. One
// encoder reused across appends writes a whole stream with amortized
// zero allocations: the chunk is built in place (header, payload,
// checksum) and handed to w in a single Write call.
//
// The zero value is ready to use. Not safe for concurrent use; the
// package-level WriteFrameChunk pools encoders for callers without a
// natural place to keep one.
type ChunkEncoder struct {
	buf []byte
}

// WriteFrameChunk appends one CRC-framed chunk of frames to w. Every
// frame's measurement must be windowN x windowN.
func (e *ChunkEncoder) WriteFrameChunk(w io.Writer, windowN int, frames []Frame) error {
	if len(frames) == 0 {
		return fmt.Errorf("dataio: empty frame chunk")
	}
	if len(frames) > maxChunkFrames {
		return fmt.Errorf("%w: %d frames in one chunk (max %d)", ErrHeaderBounds, len(frames), maxChunkFrames)
	}
	need := wire.ChunkOverhead + 8 + len(frames)*frameBytes(windowN)
	if cap(e.buf) < need {
		e.buf = make([]byte, 0, need)
	}
	buf, start := wire.BeginChunk(e.buf[:0], chunkFrames)
	buf = wire.AppendInt64(buf, int64(len(frames)))
	for i, f := range frames {
		if f.Meas == nil || f.Meas.W() != windowN || f.Meas.H() != windowN {
			e.buf = buf
			return fmt.Errorf("dataio: chunk frame %d measurement is not %dx%d", i, windowN, windowN)
		}
		buf = wire.AppendInt64(buf, int64(f.Loc.Index))
		buf = wire.AppendFloat64(buf, f.Loc.X)
		buf = wire.AppendFloat64(buf, f.Loc.Y)
		buf = wire.AppendFloat64(buf, f.Loc.Radius)
		buf = wire.AppendFloat64s(buf, f.Meas.Data)
	}
	buf = wire.EndChunk(buf, start)
	e.buf = buf
	_, err := w.Write(buf)
	return err
}

var chunkEncoders = sync.Pool{New: func() any { return new(ChunkEncoder) }}

// WriteFrameChunk appends one CRC-framed chunk of frames to w using a
// pooled encoder. Every frame's measurement must be windowN x windowN.
// Callers on a hot path should hold their own ChunkEncoder instead.
func WriteFrameChunk(w io.Writer, windowN int, frames []Frame) error {
	e := chunkEncoders.Get().(*ChunkEncoder)
	defer chunkEncoders.Put(e)
	return e.WriteFrameChunk(w, windowN, frames)
}

// WriteEOFChunk appends the end-of-stream marker to w.
func WriteEOFChunk(w io.Writer) error {
	var arr [wire.ChunkOverhead]byte
	buf := wire.AppendChunk(arr[:0], chunkEOF, nil)
	_, err := w.Write(buf)
	return err
}

// ChunkDecoder owns the payload scratch a chunk is read into. One
// decoder reused across chunks keeps steady-state decode allocations
// down to the frames themselves: each chunk's frames share a single
// backing array sliced per frame, and they OWN that memory — nothing
// handed out aliases the decoder's scratch, so the ingest ring and
// Problem.AppendLocations may retain frames indefinitely.
//
// The zero value is ready to use. Not safe for concurrent use; the
// package-level ReadChunk pools decoders.
type ChunkDecoder struct {
	scratch []byte
}

// checkChunkHead validates a chunk's kind and declared length before a
// payload byte is read: an 'E' carries none, an 'F' a count field plus
// a whole number of frames of the window, within the frame cap.
func checkChunkHead(kind byte, length int64, windowN int) error {
	switch kind {
	case chunkEOF:
		if length != 0 {
			return fmt.Errorf("%w: EOF chunk with %d payload bytes", ErrChunkCorrupt, length)
		}
	case chunkFrames:
		fb := int64(frameBytes(windowN))
		if length < 8+fb || (length-8)%fb != 0 {
			return fmt.Errorf("%w: frame chunk length %d not 8+k*%d", ErrChunkCorrupt, length, fb)
		}
		if n := (length - 8) / fb; n > maxChunkFrames {
			return fmt.Errorf("%w: %d frames in one chunk (max %d)", ErrHeaderBounds, n, maxChunkFrames)
		}
	default:
		return fmt.Errorf("%w: unknown chunk kind %q", ErrChunkCorrupt, kind)
	}
	return nil
}

// ReadChunk reads one framed chunk for a stream with the given window
// size. It returns the decoded frames for an 'F' chunk, eof == true
// for an 'E' chunk, and io.EOF when r is exhausted before a chunk
// starts. CRC or length mismatches return ErrChunkCorrupt; implausible
// frame counts return ErrHeaderBounds — both before the payload is
// interpreted.
func (d *ChunkDecoder) ReadChunk(r io.Reader, windowN int) (frames []Frame, eof bool, err error) {
	head, body, err := d.readChunk(r, windowN)
	if err != nil || head[0] == chunkEOF {
		return nil, err == nil, err
	}
	return decodeFramePayload(body[:len(body)-4], windowN, true)
}

// readChunk reads one framed chunk into the decoder's scratch and
// verifies its head and CRC: the head, then the body — payload and CRC,
// valid until the next call. io.EOF means r ended before a chunk began.
func (d *ChunkDecoder) readChunk(r io.Reader, windowN int) (head [9]byte, body []byte, err error) {
	if windowN <= 0 || windowN > maxWindowN {
		return head, nil, fmt.Errorf("%w: window %d", ErrHeaderBounds, windowN)
	}
	// No buffering here: every read is exact-size, so a chunk read never
	// consumes bytes past its own chunk — callers interleave calls on a
	// shared reader (Read) or hand over an HTTP body.
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return head, nil, io.EOF
		}
		return head, nil, fmt.Errorf("dataio: reading chunk header: %w", err)
	}
	length := wire.Int64(head[1:])
	if err := checkChunkHead(head[0], length, windowN); err != nil {
		return head, nil, err
	}
	// Never trust the declared length for the allocation:
	// wire.ReadCapped grows in bounded increments as bytes ACTUALLY
	// arrive — a 17-byte request declaring a terabyte chunk fails at
	// EOF having allocated almost nothing.
	body, err = wire.ReadCapped(r, d.scratch, length+4)
	if err != nil {
		return head, nil, fmt.Errorf("dataio: reading chunk payload: %w", err)
	}
	d.scratch = body
	// An 'E' chunk's empty payload checksums to 0.
	return head, body, verifyCRC(wire.Uint32(body[length:]), body[:length])
}

var chunkDecoders = sync.Pool{New: func() any { return new(ChunkDecoder) }}

// ReadChunk reads one framed chunk using a pooled decoder; see
// ChunkDecoder.ReadChunk. Callers on a hot path should hold their own
// ChunkDecoder instead.
func ReadChunk(r io.Reader, windowN int) (frames []Frame, eof bool, err error) {
	d := chunkDecoders.Get().(*ChunkDecoder)
	defer chunkDecoders.Put(d)
	return d.ReadChunk(r, windowN)
}

// DecodeChunk is the zero-copy sibling of ReadChunk for callers that
// already hold the encoded bytes in memory (a spool file read whole, a
// batch buffer): the chunk at the front of buf is validated and
// decoded in place — no intermediate payload copy — and n reports the
// bytes consumed so callers can walk a concatenation. Validation, caps
// and CRC verification match ReadChunk exactly; an empty
// buf returns io.EOF and a buffer ending mid-chunk returns
// io.ErrUnexpectedEOF, mirroring the reader's truncation taxonomy.
func DecodeChunk(buf []byte, windowN int) (frames []Frame, eof bool, n int, err error) {
	if windowN <= 0 || windowN > maxWindowN {
		return nil, false, 0, fmt.Errorf("%w: window %d", ErrHeaderBounds, windowN)
	}
	if len(buf) == 0 {
		return nil, false, 0, io.EOF
	}
	if len(buf) < 1+8 {
		return nil, false, 0, fmt.Errorf("dataio: reading chunk header: %w", io.ErrUnexpectedEOF)
	}
	kind, length := buf[0], wire.Int64(buf[1:])
	if err := checkChunkHead(kind, length, windowN); err != nil {
		return nil, false, 0, err
	}
	total := int64(wire.ChunkOverhead) + length
	if int64(len(buf)) < total {
		return nil, false, 0, fmt.Errorf("dataio: reading chunk payload: %w", io.ErrUnexpectedEOF)
	}
	payload := buf[9 : 9+length]
	if err := verifyCRC(wire.Uint32(buf[9+length:]), payload); err != nil {
		return nil, false, 0, err
	}
	if kind == chunkEOF {
		return nil, true, int(total), nil
	}
	frames, eof, err = decodeFramePayload(payload, windowN, true)
	return frames, eof, int(total), err
}

// verifyCRC checks a chunk's CRC against its payload.
func verifyCRC(sum uint32, payload []byte) error {
	if want, ok := wire.Verify(sum, payload); !ok {
		return fmt.Errorf("%w: crc %08x != %08x", ErrChunkCorrupt, sum, want)
	}
	return nil
}

// decodeFramePayload slices frames out of a verified 'F' payload, with
// their measurements when meas is set. All frames of the chunk share
// one backing array (three allocations per chunk: frames, grids,
// samples), which they own — the payload buffer itself is the
// decoder's and is reused for the next chunk.
func decodeFramePayload(payload []byte, windowN int, meas bool) ([]Frame, bool, error) {
	fb := frameBytes(windowN)
	count := int(wire.Int64(payload))
	if want := (len(payload) - 8) / fb; count != want {
		return nil, false, fmt.Errorf("%w: chunk declares %d frames, payload holds %d", ErrChunkCorrupt, count, want)
	}
	nn := windowN * windowN
	frames := make([]Frame, count)
	decoded := 0 // frames whose measurements are decoded
	if meas {
		decoded = count
	}
	grids, backing := make([]grid.Float2D, decoded), make([]float64, decoded*nn)
	bounds := grid.RectWH(0, 0, windowN, windowN)
	off := 8
	for i := range frames {
		frames[i].Loc = scan.Location{
			Index:  int(wire.Int64(payload[off:])),
			X:      wire.Float64(payload[off+8:]),
			Y:      wire.Float64(payload[off+16:]),
			Radius: wire.Float64(payload[off+24:]),
		}
		if meas {
			data := backing[i*nn : (i+1)*nn : (i+1)*nn]
			wire.Float64s(data, payload[off+32:])
			grids[i] = grid.Float2D{Bounds: bounds, Data: data}
			frames[i].Meas = &grids[i]
		}
		off += fb
	}
	return frames, false, nil
}

// FramesFromProblem converts a batch dataset's locations and
// measurements into frames in acquisition order — what Write chunks,
// and the replay source for ptychofeed and the streaming tests.
func FramesFromProblem(prob *solver.Problem) []Frame {
	frames := make([]Frame, prob.Pattern.N())
	for i, l := range prob.Pattern.Locations {
		frames[i] = Frame{Loc: l, Meas: prob.Meas[i]}
	}
	return frames
}
