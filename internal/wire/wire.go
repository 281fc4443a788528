// Package wire is the shared byte-level toolkit behind every framed
// codec in the repository: the PTYCHS stream chunks (internal/dataio),
// the PTGW grid frames (internal/transport) and the PTYWAL job-state
// records (internal/jobs/store). It owns two things the codecs would
// otherwise each reimplement:
//
//   - The checksum. Every frame, chunk and record carries the
//     Castagnoli CRC-32 (crc32.Castagnoli), which hash/crc32 computes
//     with dedicated SIMD instructions on amd64 and arm64 — the
//     difference between ~1 GB/s and hardware-speed checksumming on
//     the wire hot path. There is one polynomial and one pass: a
//     reader that sees any other checksum sees corruption
//     (docs/FORMATS.md, "Checksum").
//
//   - Allocation-free little-endian encode/decode primitives: append
//     helpers that grow a caller-owned scratch buffer (amortized zero
//     allocations, the scratch-arena recipe the gradient kernel uses),
//     bulk float64 conversions, and the house chunk framing
//     (kind byte, int64 length, payload, uint32 CRC) shared by
//     PTYCHS chunks and PTYWAL records.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether host memory layout already matches
// the wire's little-endian encoding. On such hosts (amd64, arm64, …)
// the bulk float64 conversions degenerate into memcpy — the other half,
// with hardware CRC, of the ≥4 GB/s codec budget. Big-endian hosts
// take the portable per-element path below.
var hostLittleEndian = func() bool {
	var v uint16 = 1
	return *(*byte)(unsafe.Pointer(&v)) == 1
}()

// castagnoli is built once; crc32.MakeTable caches the SIMD dispatch.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32 (Castagnoli) of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Update continues a running CRC-32.
func Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// Verify reports whether sum is p's checksum. The returned want is the
// checksum p should have carried — what an error message should cite.
func Verify(sum uint32, p []byte) (want uint32, ok bool) {
	want = Checksum(p)
	return want, sum == want
}

// --- scalar append helpers ------------------------------------------

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendInt64 appends v little-endian.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendFloat64 appends v's bit pattern little-endian — exact both ways.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendFloat64s appends every element of src, 8 bytes each. One grow,
// then straight 8-byte stores — the bulk half of the codec fast path.
func AppendFloat64s(dst []byte, src []float64) []byte {
	off := len(dst)
	dst = Grow(dst, 8*len(src))
	out := dst[off:]
	if hostLittleEndian && len(src) > 0 {
		copy(out, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 8*len(src)))
		return dst
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return dst
}

// AppendComplex128s appends src as interleaved (re, im) float64 pairs.
func AppendComplex128s(dst []byte, src []complex128) []byte {
	off := len(dst)
	dst = Grow(dst, 16*len(src))
	out := dst[off:]
	if hostLittleEndian && len(src) > 0 {
		copy(out, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 16*len(src)))
		return dst
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(v)))
	}
	return dst
}

// Grow extends dst by n bytes of unspecified content, reallocating
// (with doubling, so repeated calls amortize) only when capacity is
// short. Callers overwrite the appended region.
func Grow(dst []byte, n int) []byte {
	l := len(dst)
	if cap(dst)-l < n {
		grown := make([]byte, l, nextCap(l+n, cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	return dst[:l+n]
}

// nextCap doubles until need fits, so repeated Grow calls amortize.
func nextCap(need, have int) int {
	if have < 64 {
		have = 64
	}
	for have < need {
		have *= 2
	}
	return have
}

// --- scalar decode helpers ------------------------------------------

// Uint32 reads a little-endian uint32 at src[0:4].
func Uint32(src []byte) uint32 { return binary.LittleEndian.Uint32(src) }

// Uint64 reads a little-endian uint64 at src[0:8].
func Uint64(src []byte) uint64 { return binary.LittleEndian.Uint64(src) }

// Int64 reads a little-endian int64 at src[0:8].
func Int64(src []byte) int64 { return int64(binary.LittleEndian.Uint64(src)) }

// Float64 reads a little-endian float64 bit pattern at src[0:8].
func Float64(src []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(src))
}

// Float64s fills dst from src (8 bytes per element); src must hold at
// least 8*len(dst) bytes. The bulk half of the decode fast path.
func Float64s(dst []float64, src []byte) {
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), src[:8*len(dst)])
		return
	}
	_ = src[8*len(dst)-1] // one bounds check, not len(dst)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Complex128s fills dst from src as interleaved (re, im) float64
// pairs; src must hold at least 16*len(dst) bytes.
func Complex128s(dst []complex128, src []byte) {
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 16*len(dst)), src[:16*len(dst)])
		return
	}
	_ = src[16*len(dst)-1]
	for i := range dst {
		dst[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(src[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(src[16*i+8:])),
		)
	}
}

// --- the house chunk framing ----------------------------------------
//
// PTYCHS chunks and PTYWAL records share one frame shape:
//
//	kind    [1]byte
//	length  int64: payload byte count
//	payload length bytes
//	crc     uint32 CRC-32 (Castagnoli) of the payload
//
// Encoders build the payload in place inside the caller's scratch:
// BeginChunk reserves the header, EndChunk backfills the length and
// appends the checksum — no intermediate payload buffer exists.

// ChunkOverhead is the framing bytes around a chunk payload.
const ChunkOverhead = 1 + 8 + 4

// BeginChunk appends kind and a length placeholder to dst and returns
// the buffer plus the payload start offset for EndChunk.
func BeginChunk(dst []byte, kind byte) (out []byte, payloadStart int) {
	dst = append(dst, kind)
	dst = AppendUint64(dst, 0) // backfilled by EndChunk
	return dst, len(dst)
}

// EndChunk completes a chunk begun with BeginChunk: everything
// appended since payloadStart is the payload; the length field is
// backfilled and the CRC of the payload appended.
func EndChunk(dst []byte, payloadStart int) []byte {
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint64(dst[payloadStart-8:], uint64(len(payload)))
	return AppendUint32(dst, Checksum(payload))
}

// AppendChunk appends one complete chunk framing an existing payload.
func AppendChunk(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return AppendUint32(dst, Checksum(payload))
}

// --- bounded payload reading ----------------------------------------

// readStep bounds a single payload-read increment: memory tracks the
// bytes that ACTUALLY arrive, so a lying length field cannot commit
// the reader to an absurd allocation (the dataio decoders' rule).
const readStep = 1 << 20

// ReadCapped reads exactly n bytes from r, reusing scratch when its
// capacity suffices (zero allocations steady-state). It grows in
// bounded increments while bytes keep arriving; a stream that runs dry
// mid-payload returns io.ErrUnexpectedEOF having allocated only what
// arrived. The filled buffer aliases scratch's backing array whenever
// possible — callers own the result until their next call.
func ReadCapped(r io.Reader, scratch []byte, n int64) ([]byte, error) {
	buf := scratch[:0]
	var got int64
	for got < n {
		step := min(n-got, readStep)
		buf = Grow(buf, int(step))
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got += step
	}
	return buf, nil
}
