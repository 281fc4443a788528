package stream

import (
	"bytes"
	"io"
	"testing"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/scan"
)

// benchFrames synthesizes chunkSize frames with windowN x windowN
// measurements (no physics — ingest benchmarks measure plumbing, not
// the forward model).
func benchFrames(windowN, chunkSize int) []dataio.Frame {
	frames := make([]dataio.Frame, chunkSize)
	for i := range frames {
		m := grid.NewFloat2DSize(windowN, windowN)
		for k := range m.Data {
			m.Data[k] = float64(i + k)
		}
		frames[i] = dataio.Frame{
			Loc:  scan.Location{Index: i, X: float64(10 + i), Y: 10, Radius: 6},
			Meas: m,
		}
	}
	return frames
}

// BenchmarkIngestAppendPoll measures the producer→engine handoff: one
// Append of a 64-frame chunk plus the fold-side poll. Bytes/op is the
// frame payload, so MB/s is wire-equivalent ingest throughput.
func BenchmarkIngestAppendPoll(b *testing.B) {
	const windowN, chunk = 64, 64
	frames := benchFrames(windowN, chunk)
	in := NewIngest(4 * chunk)
	b.SetBytes(int64(chunk * (8 + 3*8 + 8*windowN*windowN)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Append(frames); err != nil {
			b.Fatal(err)
		}
		if got, _ := in.poll(); len(got) != chunk {
			b.Fatal("short poll")
		}
	}
	b.ReportMetric(float64(chunk), "frames/op")
}

// BenchmarkChunkDecode measures the codec fast path: one CRC-verified
// 64-frame PTYCHS chunk decoded zero-copy from memory — what a spool
// replay or batch buffer pays per chunk. This is the headline
// single-core decode number the BENCH baseline gates.
func BenchmarkChunkDecode(b *testing.B) {
	const windowN, chunk = 64, 64
	frames := benchFrames(windowN, chunk)
	var buf bytes.Buffer
	if err := dataio.WriteFrameChunk(&buf, windowN, frames); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, eof, _, err := dataio.DecodeChunk(raw, windowN)
		if err != nil || eof || len(got) != chunk {
			b.Fatalf("decode: %d frames, eof %v, err %v", len(got), eof, err)
		}
	}
	b.ReportMetric(float64(chunk), "frames/op")
}

// BenchmarkChunkDecodeStream is the HTTP-body variant: the same chunk
// pulled through io.Reader with a warm decoder, which adds the
// unavoidable copy into the decoder's scratch — the delta against
// BenchmarkChunkDecode is that copy's cost.
func BenchmarkChunkDecodeStream(b *testing.B) {
	const windowN, chunk = 64, 64
	frames := benchFrames(windowN, chunk)
	var buf bytes.Buffer
	if err := dataio.WriteFrameChunk(&buf, windowN, frames); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	dec := new(dataio.ChunkDecoder)
	r := bytes.NewReader(raw)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		got, eof, err := dec.ReadChunk(r, windowN)
		if err != nil || eof || len(got) != chunk {
			b.Fatalf("decode: %d frames, eof %v, err %v", len(got), eof, err)
		}
	}
	b.ReportMetric(float64(chunk), "frames/op")
}

// BenchmarkChunkEncode is the feeder-side counterpart: a warm encoder
// framing 64 frames (build + hardware CRC). The sink is io.Discard so
// the number is the codec's, not the socket's.
func BenchmarkChunkEncode(b *testing.B) {
	const windowN, chunk = 64, 64
	frames := benchFrames(windowN, chunk)
	enc := new(dataio.ChunkEncoder)
	var buf bytes.Buffer
	if err := enc.WriteFrameChunk(&buf, windowN, frames); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.WriteFrameChunk(io.Discard, windowN, frames); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chunk), "frames/op")
}

// BenchmarkStreamingIteration measures one full engine iteration over
// a 16-location active set — the unit of work between ingest polls.
func BenchmarkStreamingIteration(b *testing.B) {
	prob := acquisition(b, 1)
	hdr := dataio.HeaderFromProblem(prob)
	grown := hdr.NewProblem()
	frames := dataio.FramesFromProblem(prob)
	locs := make([]scan.Location, len(frames))
	meas := make([]*grid.Float2D, len(frames))
	for i, f := range frames {
		locs[i], meas[i] = f.Loc, f.Meas
	}
	if err := grown.AppendLocations(locs, meas); err != nil {
		b.Fatal(err)
	}
	eng := newSerialEngine(grown, phantom.Vacuum(grown.ImageBounds(), grown.Slices).Slices, engine.Spec{StepSize: 0.01})
	defer eng.st.Close()
	eng.iterate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.iterate()
	}
}
