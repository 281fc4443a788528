// Package transport implements simmpi.Transport over TCP: the
// distributed counterpart of the in-process goroutine world, carrying
// the same tagged point-to-point messages and collectives between
// worker PROCESSES so the unmodified reconstruction engines (gradsync,
// halo) scale past one machine.
//
// Topology is a star: every worker holds one persistent connection to a
// coordinator hub, reused across reconstruction sessions, and the hub
// routes rank-to-rank frames, counts barrier entries, and computes
// allreduce sums in rank order (bit-identical to simmpi). The hub side
// lives in Hub (run by ptychoserve's grid coordinator), the worker side
// in Client (run by ptychoworker / internal/gridworker).
//
// Every frame is length-prefixed and CRC-protected; the byte-level
// layout is specified in docs/FORMATS.md ("PTGW wire frames").
// Blocking operations carry deadlines mirroring simmpi.ErrTimeout, so a
// deadlocked exchange or a vanished peer fails loudly — never hangs.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ptychopath/internal/wire"
)

// ProtoVersion is the wire-protocol generation. Coordinator and workers
// ship from one repository, so there is exactly one: a worker announcing
// anything else is refused at the handshake with an ERROR frame
// (ErrVersionMismatch) — mixed deployments fail fast instead of
// corrupting a run.
//
// v2 added per-rank ITER timings and the SETUP trace string, v3 the
// Castagnoli frame CRC. v4 replaced the gob SETUP/RESULT payloads with
// the hand-framed layouts below and added SHARD: a rank is sent its own
// measurements and its own tile of the initial object, never the
// dataset. v5 frames HELLO and the version refusal with that CRC too
// (they carried the IEEE one): a frame has one valid checksum, so a
// pre-v5 worker's HELLO is a corrupt frame and the hub hangs up.
const ProtoVersion = 5

// frameMagic opens every frame on the wire.
var frameMagic = [4]byte{'P', 'T', 'G', 'W'}

// Frame types.
const (
	frameHello      = 0x01 // worker → hub: version + worker name
	frameWelcome    = 0x02 // hub → worker: version + assigned worker id
	frameSetup      = 0x03 // hub → worker: Setup header — a session begins
	frameData       = 0x04 // worker ↔ worker (routed): complex128 payload
	frameBarrier    = 0x05 // worker → hub: enter barrier
	frameBarrierOK  = 0x06 // hub → worker: barrier released
	frameReduce     = 0x07 // worker → hub: float64 contribution
	frameReduceOK   = 0x08 // hub → worker: float64 rank-ordered sum
	frameSnapshot   = 0x09 // rank 0 → hub: int64 iter + opaque object bytes
	frameSnapshotOK = 0x0A // hub → rank 0: uint8 ok + error string
	frameIter       = 0x0B // worker → hub, no reply: 16 B = rank 0 progress (int64 iter + float64 cost); 24 B = any rank's timings (int64 iter + int64 computeNS + int64 commNS)
	frameResult     = 0x0C // worker → hub: RankResult — session ends for this rank
	frameError      = 0x0D // either: uint8 code + message; aborts the session or conn
	frameCancel     = 0x0E // hub → worker: stop at the next iteration boundary
	frameGoodbye    = 0x0F // worker → hub: graceful teardown
	frameShard      = 0x10 // hub → worker, after SETUP: next piece of the rank's shard; empty = end of shard
)

// Error codes carried by frameError payloads.
const (
	codeGeneric  = 0x00
	codeVersion  = 0x01
	codePeerLost = 0x02
	codeAborted  = 0x03
)

// hubRank is the src/dst pseudo-rank of the coordinator hub in frame
// headers.
const hubRank = -1

// maxFramePayload bounds a single frame. The largest legitimate payload
// is a full extended-tile snapshot; 1 GiB leaves generous headroom
// while keeping a corrupt length field from committing the reader to an
// absurd allocation.
const maxFramePayload = 1 << 30

// maxShardFrame bounds one SHARD payload, so neither end ever buffers
// more than this of a shard however large the dataset is.
const maxShardFrame = 1 << 20

// handshakeTimeout bounds the hello/welcome exchange.
const handshakeTimeout = 10 * time.Second

// Typed transport errors. Blocking-operation timeouts additionally wrap
// simmpi.ErrTimeout so engine-level errors.Is checks behave identically
// on both transports.
var (
	// ErrVersionMismatch is returned by Dial when the hub speaks a
	// different ProtoVersion.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrFrameCorrupt is returned when a frame fails validation: bad
	// magic, a CRC that does not match the payload, an over-limit
	// length, or a stream truncated mid-frame.
	ErrFrameCorrupt = errors.New("transport: corrupt or truncated frame")
	// ErrPeerLost is surfaced by blocking operations when another rank
	// of the session disconnected mid-run — the session cannot
	// complete.
	ErrPeerLost = errors.New("transport: peer lost mid-session")
	// ErrSessionAborted is surfaced when the coordinator abandoned the
	// session (a rank reported failure, or the coordinator shut down).
	ErrSessionAborted = errors.New("transport: session aborted by coordinator")
	// ErrClosed is returned on operations against a closed endpoint.
	ErrClosed = errors.New("transport: connection closed")
)

// frame is one decoded wire frame.
type frame struct {
	typ      uint8
	src, dst int32
	tag      int32
	payload  []byte
}

// frameHeaderLen is the byte length of type..length, the CRC-covered
// fixed header that follows the magic.
const frameHeaderLen = 1 + 4 + 4 + 4 + 4

// frameLenOffset is where a frame's payload length sits: after the
// magic, type, src, dst and tag. frameOverhead is what a frame adds
// around its payload: magic, header and the trailing CRC.
const (
	frameLenOffset = 4 + frameHeaderLen - 4
	frameOverhead  = 4 + frameHeaderLen + 4
)

// appendFrame encodes one frame into dst:
//
//	magic[4] | type[1] | src[4] | dst[4] | tag[4] | len[4] | payload | crc[4]
//
// crc is the CRC-32 (Castagnoli) over type..payload. Appending lets a
// caller batch several frames into one scratch buffer and hand the
// kernel a single write.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	if len(f.payload) > maxFramePayload {
		return dst, fmt.Errorf("%w: payload %d exceeds %d", ErrFrameCorrupt, len(f.payload), maxFramePayload)
	}
	dst, start := beginFrame(dst, f.typ, f.src, f.dst, f.tag)
	return endFrame(append(dst, f.payload...), start)
}

// beginFrame appends a frame's magic and header with a length
// placeholder and returns the buffer plus the frame's start offset for
// endFrame: large payloads (a SETUP's init tile, a SHARD, a RESULT's
// tile) are built in place in the connection's write buffer, so no
// intermediate payload buffer exists.
func beginFrame(dst []byte, typ uint8, src, to, tag int32) (out []byte, start int) {
	start = len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, typ)
	dst = wire.AppendUint32(dst, uint32(src))
	dst = wire.AppendUint32(dst, uint32(to))
	dst = wire.AppendUint32(dst, uint32(tag))
	return wire.AppendUint32(dst, 0), start // backfilled by endFrame
}

// endFrame completes a frame begun with beginFrame: everything appended
// since is the payload. An over-limit payload is cut back off dst.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - frameLenOffset - 4
	if n > maxFramePayload {
		return dst[:start], fmt.Errorf("%w: payload %d exceeds %d", ErrFrameCorrupt, n, maxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[start+frameLenOffset:], uint32(n))
	return wire.AppendUint32(dst, wire.Checksum(dst[start+4:])), nil
}

// writeFrame encodes and writes one frame. The caller serializes writes
// per connection. Hot paths batch through appendFrame instead.
func writeFrame(w io.Writer, f frame) error {
	buf, err := appendFrame(make([]byte, 0, frameOverhead+len(f.payload)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// frameReader decodes frames from one connection, reusing a payload
// scratch buffer across reads: a returned frame's payload is valid
// only until the next read, so handlers must copy anything they
// retain (DATA payloads are copied out by the read loop, SETUP and RESULT
// payloads by their decoders; a SHARD payload is lent to the session
// goroutine, and the read loop waits until it is handed back).
type frameReader struct {
	r       io.Reader
	scratch []byte
}

// read reads and validates one frame. Truncation, bad magic, an
// over-limit length and a CRC mismatch all return ErrFrameCorrupt; a
// clean EOF between frames returns io.EOF.
func (d *frameReader) read() (frame, error) {
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("%w: truncated header: %v", ErrFrameCorrupt, err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return frame{}, fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, hdr[:4])
	}
	f := frame{
		typ: hdr[4],
		src: int32(binary.LittleEndian.Uint32(hdr[5:])),
		dst: int32(binary.LittleEndian.Uint32(hdr[9:])),
		tag: int32(binary.LittleEndian.Uint32(hdr[13:])),
	}
	n := binary.LittleEndian.Uint32(hdr[17:])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrameCorrupt, n, maxFramePayload)
	}
	// Payload and trailing CRC in one capped read: memory tracks the
	// bytes that actually arrive, so a lying length cannot balloon it.
	buf, err := wire.ReadCapped(d.r, d.scratch, int64(n)+4)
	if err != nil {
		return frame{}, fmt.Errorf("%w: truncated payload: %v", ErrFrameCorrupt, err)
	}
	d.scratch = buf
	payload := buf[:n]
	got := binary.LittleEndian.Uint32(buf[n:])
	// The CRC covers type..payload — continue it across the two spans.
	if want := wire.Update(wire.Checksum(hdr[4:]), payload); got != want {
		return frame{}, fmt.Errorf("%w: crc %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	f.payload = payload
	return f, nil
}

// readFrame reads one frame with a throwaway scratch — handshake and
// test convenience; connection loops hold a frameReader.
func readFrame(r io.Reader) (frame, error) {
	d := frameReader{r: r}
	return d.read()
}

// errorPayload encodes a frameError payload.
func errorPayload(code uint8, msg string) []byte {
	return append([]byte{code}, msg...)
}

// decodeError maps a frameError payload to a typed error.
func decodeError(payload []byte) error {
	code, msg := uint8(codeGeneric), ""
	if len(payload) > 0 {
		code, msg = payload[0], string(payload[1:])
	}
	switch code {
	case codeVersion:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, msg)
	case codePeerLost:
		return fmt.Errorf("%w: %s", ErrPeerLost, msg)
	case codeAborted:
		return fmt.Errorf("%w: %s", ErrSessionAborted, msg)
	default:
		return fmt.Errorf("transport: remote error: %s", msg)
	}
}

// Setup opens a session on one worker: which rank it is, how to run,
// and that rank's share of the job — nothing of any other rank's. Spec,
// Init and the shard are opaque to the transport (engine.Spec as JSON,
// OBJCKv1, and a PTYCHSv2 stream — see internal/dataio and
// docs/FORMATS.md).
type Setup struct {
	// JobID names the coordinator-side job this session executes.
	JobID string
	// Rank and Size place this worker in the session's world; the hub
	// fills them in at StartSession.
	Rank int
	Size int
	// Algorithm names the engine for the worker's log line; what runs is
	// decided by Spec.
	Algorithm string
	// TimeoutMS bounds the session's blocking transport operations and
	// the hub's SETUP and SHARD writes (milliseconds; 0 keeps the
	// transport default).
	TimeoutMS int64
	// Trace is the coordinator's trace context (the job's request ID):
	// workers tag their logs with it so one grep follows a request
	// from HTTP accept through every rank.
	Trace string

	// Spec is the run description, the same on every rank.
	Spec []byte
	// Init is the rank's tile of a warm start's object; empty on a
	// vacuum start, where the rank builds its own.
	Init []byte
	// Shard carries the rank's measurements. The coordinator supplies a
	// source the hub reads from after the SETUP headers are out, one
	// SHARD frame per Read; the worker gets a reader fed by its
	// connection as the frames arrive. Nil when the session has none.
	Shard io.Reader
}

// RankResult is one rank's outcome, shipped worker → hub when its part
// of the session finishes (successfully or not).
type RankResult struct {
	// Rank identifies the sender within the session.
	Rank int
	// Err, when non-empty, reports the rank failed; other fields may be
	// zero. A failing rank still reports in-band — it never tears down
	// the connection.
	Err string
	// Cancelled marks a collective Ctx-cancellation stop with partial
	// state in Tile.
	Cancelled bool

	// CostHistory is the all-reduced global cost per iteration.
	CostHistory []float64
	// Locations counts the rank's assigned probe locations (for hve,
	// including redundant ones; Owned excludes them).
	Locations, Owned int
	// MemBytes estimates the rank's resident footprint; ComputeNS and
	// CommNS split its wall-clock between gradient work and passes.
	MemBytes          int64
	ComputeNS, CommNS int64
	// SentBytes and SentMessages count the rank's outgoing payload
	// traffic.
	SentBytes, SentMessages int64
	// Tile is the rank's interior tile as OBJCKv1 bytes — the bounds
	// travel with the data, and the halo is not the rank's to report.
	Tile []byte
}

// setupHasShard is the SETUP flag bit announcing that SHARD frames
// follow; resultCancelled is RankResult.Cancelled on the wire.
const (
	setupHasShard   = 0x01
	resultCancelled = 0x01
)

// appendSetup encodes a SETUP payload:
//
//	rank[4] size[4] timeoutMS[8] flags[1] | jobID | algorithm | trace | spec | init
//
// where every trailing field is a uint32 length and that many bytes.
func appendSetup(dst []byte, s *Setup) []byte {
	dst = wire.AppendUint32(dst, uint32(s.Rank))
	dst = wire.AppendUint32(dst, uint32(s.Size))
	dst = wire.AppendInt64(dst, s.TimeoutMS)
	var flags byte
	if s.Shard != nil {
		flags |= setupHasShard
	}
	dst = append(dst, flags)
	dst = appendBytes(dst, s.JobID)
	dst = appendBytes(dst, s.Algorithm)
	dst = appendBytes(dst, s.Trace)
	dst = appendBytes(dst, s.Spec)
	return appendBytes(dst, s.Init)
}

// decodeSetup decodes a SETUP payload, copying everything it keeps.
// hasShard reports the flag; the caller attaches the reader.
func decodeSetup(payload []byte) (s *Setup, hasShard bool, err error) {
	r := payloadReader{b: payload}
	s = &Setup{
		Rank:      int(r.uint32()),
		Size:      int(r.uint32()),
		TimeoutMS: r.int64(),
	}
	flags := r.byte()
	s.JobID = string(r.bytes())
	s.Algorithm = string(r.bytes())
	s.Trace = string(r.bytes())
	s.Spec = append([]byte(nil), r.bytes()...)
	s.Init = append([]byte(nil), r.bytes()...)
	if err := r.finish("setup"); err != nil {
		return nil, false, err
	}
	return s, flags&setupHasShard != 0, nil
}

// appendResult encodes a RESULT payload:
//
//	rank[4] flags[1] locations[8] owned[8] memBytes[8] computeNS[8] commNS[8]
//	sentBytes[8] sentMessages[8] | err | costs | tile
//
// err and tile are a uint32 length and that many bytes, costs a uint32
// count and that many float64.
func appendResult(dst []byte, res *RankResult) []byte {
	dst = wire.AppendUint32(dst, uint32(res.Rank))
	var flags byte
	if res.Cancelled {
		flags |= resultCancelled
	}
	dst = append(dst, flags)
	for _, v := range [...]int64{int64(res.Locations), int64(res.Owned), res.MemBytes,
		res.ComputeNS, res.CommNS, res.SentBytes, res.SentMessages} {
		dst = wire.AppendInt64(dst, v)
	}
	dst = appendBytes(dst, res.Err)
	dst = wire.AppendUint32(dst, uint32(len(res.CostHistory)))
	dst = wire.AppendFloat64s(dst, res.CostHistory)
	return appendBytes(dst, res.Tile)
}

// decodeResult decodes a RESULT payload, copying everything it keeps.
func decodeResult(payload []byte) (*RankResult, error) {
	r := payloadReader{b: payload}
	res := &RankResult{Rank: int(r.uint32())}
	res.Cancelled = r.byte()&resultCancelled != 0
	res.Locations, res.Owned = int(r.int64()), int(r.int64())
	res.MemBytes, res.ComputeNS, res.CommNS = r.int64(), r.int64(), r.int64()
	res.SentBytes, res.SentMessages = r.int64(), r.int64()
	res.Err = string(r.bytes())
	if costs := r.take(8 * int64(r.uint32())); len(costs) > 0 {
		res.CostHistory = make([]float64, len(costs)/8)
		wire.Float64s(res.CostHistory, costs)
	}
	res.Tile = append([]byte(nil), r.bytes()...)
	if err := r.finish("result"); err != nil {
		return nil, err
	}
	return res, nil
}

// appendBytes appends a uint32 length and the bytes of b.
func appendBytes[T string | []byte](dst []byte, b T) []byte {
	dst = wire.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// payloadReader walks a hand-framed payload. Every length is checked
// against what is left BEFORE anything is sliced or allocated; the
// first short read latches bad and every later read returns zero, so
// decoders read straight through and ask once at the end.
type payloadReader struct {
	b   []byte
	bad bool
}

// take returns the next n bytes, aliasing the payload.
func (r *payloadReader) take(n int64) []byte {
	if r.bad || n > int64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *payloadReader) uint32() uint32 {
	if b := r.take(4); b != nil {
		return wire.Uint32(b)
	}
	return 0
}

func (r *payloadReader) int64() int64 {
	if b := r.take(8); b != nil {
		return wire.Int64(b)
	}
	return 0
}

// bytes returns a uint32-length-prefixed field, aliasing the payload.
func (r *payloadReader) bytes() []byte { return r.take(int64(r.uint32())) }

// finish reports a payload that ended early or carries trailing bytes.
func (r *payloadReader) finish(what string) error {
	if r.bad || len(r.b) != 0 {
		return fmt.Errorf("%w: malformed %s payload", ErrFrameCorrupt, what)
	}
	return nil
}
