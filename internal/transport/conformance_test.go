package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// conformanceFrame is a fixed routed-data frame used for the golden
// vectors: deterministic header fields and a payload long enough to
// exercise the CRC over both header and body.
func conformanceFrame() frame {
	return frame{
		typ: frameData, src: 1, dst: 2, tag: 7,
		payload: []byte("ptychowire golden frame payload 0123456789"),
	}
}

// TestGoldenFrame pins the PTGW encoding under both checksum
// generations, proves re-encode is bit-identical, and runs the
// differential check: the one reader accepts both generations and
// decodes them to the same frame.
func TestGoldenFrame(t *testing.T) {
	f := conformanceFrame()
	current, err := appendFrame(nil, f, wire.GenCurrent)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := appendFrame(nil, f, wire.GenIEEE)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "frame_castagnoli.golden", current)
	wiretest.Golden(t, "frame_ieee.golden", legacy)
	if bytes.Equal(current, legacy) {
		t.Fatal("generations should differ in the trailing CRC")
	}
	if !bytes.Equal(current[:len(current)-4], legacy[:len(legacy)-4]) {
		t.Fatal("generations should differ only in the trailing CRC")
	}

	for name, raw := range map[string][]byte{"castagnoli": current, "ieee": legacy} {
		got, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.typ != f.typ || got.src != f.src || got.dst != f.dst || got.tag != f.tag || !bytes.Equal(got.payload, f.payload) {
			t.Fatalf("%s: decoded frame differs: %+v", name, got)
		}
		reenc, err := appendFrame(nil, got, wire.GenCurrent)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, current) {
			t.Fatalf("%s: re-encode is not bit-identical to the current generation", name)
		}
	}
}

// TestFrameCodecAllocs is the allocation-budget guard for the
// transport hot path: appending into a warm batch buffer is
// zero-alloc, and a warm frameReader spends at most the payload slice
// header it hands back.
func TestFrameCodecAllocs(t *testing.T) {
	f := conformanceFrame()
	buf, err := appendFrame(nil, f, wire.GenCurrent)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf...)

	encAllocs := testing.AllocsPerRun(100, func() {
		buf, err = appendFrame(buf[:0], f, wire.GenCurrent)
		if err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 0 {
		t.Errorf("warm appendFrame: %.0f allocs/op, budget 0", encAllocs)
	}

	r := bytes.NewReader(raw)
	rd := frameReader{r: r}
	if _, err := rd.read(); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, err := rd.read(); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 2 {
		t.Errorf("warm frameReader.read: %.0f allocs/op, budget 2", decAllocs)
	}
}

// TestV3WorkerRefused: there is one protocol generation. A worker of
// the previous one (v3 could not parse a v4 SETUP) is turned away at
// the handshake with a typed version error — and that refusal is
// legacy-framed (IEEE CRC), so a reader of any generation can verify it.
func TestV3WorkerRefused(t *testing.T) {
	h := startHub(t)
	conn, err := net.Dial("tcp", h.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := append(uint32le(3), []byte("v3-worker")...)
	if err := writeFrameGen(conn, frame{typ: frameHello, dst: hubRank, payload: hello}, wire.GenIEEE); err != nil {
		t.Fatal(err)
	}

	// Read the reply raw so the trailing CRC's generation is visible.
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(hdr[17:])
	body := make([]byte, int(n)+4)
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	payload, crc := body[:n], binary.LittleEndian.Uint32(body[n:])
	covered := append(append([]byte(nil), hdr[4:]...), payload...)
	if hdr[4] != frameError {
		t.Fatalf("frame type 0x%02x, want frameError", hdr[4])
	}
	if err := decodeError(payload); !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), "worker sent v3") {
		t.Fatalf("refusal decodes to %v, want ErrVersionMismatch naming v3", err)
	}
	if crc != wire.Checksum(wire.GenIEEE, covered) {
		t.Fatal("the version refusal is not legacy-framed")
	}
	if crc == wire.Checksum(wire.GenCastagnoli, covered) {
		t.Fatal("CRC ambiguously matches both generations; fixture needs new bytes")
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("hub kept the connection open after refusing: %v", err)
	}
	if len(h.Workers()) != 0 {
		t.Fatal("refused worker was registered")
	}
}

// FuzzReadFrame hammers the frame decoder with the shared framing
// corpus plus PTGW-specific attacks (the length field is a uint32, so
// the lying lengths are patched separately). Every outcome must be a
// typed error or a faithful frame — never a panic, never an
// unbounded allocation.
func FuzzReadFrame(f *testing.F) {
	fr := conformanceFrame()
	current, err := appendFrame(nil, fr, wire.GenCurrent)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := appendFrame(nil, fr, wire.GenIEEE)
	if err != nil {
		f.Fatal(err)
	}
	// Shared corpus: truncations at the structural boundaries around
	// the length field (offset 17 = magic+type+src+dst+tag), CRC
	// bit-flips, and 8-byte length lies that also clobber payload.
	for _, m := range wiretest.Mutations(current, 17) {
		f.Add(m)
	}
	for _, m := range wiretest.Mutations(legacy, 17) {
		f.Add(m)
	}
	// The v4 frames: a SETUP header and a RESULT (whose hand-framed
	// payloads have length fields of their own to lie in) and a SHARD.
	setup := conformanceSetup()
	setup.Shard = bytes.NewReader(nil)
	for _, v4 := range []frame{
		{typ: frameSetup, src: hubRank, dst: 2, payload: appendSetup(nil, setup)},
		{typ: frameShard, src: hubRank, dst: 2, payload: []byte("PTYCHSv2 bytes, opaque to the transport")},
		{typ: frameResult, src: 3, dst: hubRank, payload: appendResult(nil, conformanceResult())},
	} {
		raw, err := appendFrame(nil, v4, wire.GenCurrent)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range wiretest.Mutations(raw, 17) {
			f.Add(m)
		}
	}
	// PTGW-specific: the real length field is a uint32.
	f.Add(wiretest.PatchUint32(current, 17, maxFramePayload+1))
	f.Add(wiretest.PatchUint32(current, 17, 0xFFFFFFFF))
	f.Add(wiretest.PatchUint32(current, 17, 3))
	f.Add([]byte("PTGW"))
	f.Add([]byte("NOPE then some bytes that are long enough for a header"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := frameReader{r: bytes.NewReader(data)}
		for {
			got, err := rd.read()
			if err != nil {
				return // typed rejection is fine; panics are not
			}
			if len(got.payload) > maxFramePayload {
				t.Fatalf("read returned %d payload bytes past the cap", len(got.payload))
			}
			// The hand-framed payloads: typed rejection or a value that
			// re-encodes to the same bytes, never a panic.
			switch got.typ {
			case frameSetup:
				if s, hasShard, err := decodeSetup(got.payload); err == nil {
					if hasShard {
						s.Shard = bytes.NewReader(nil)
					}
					if !bytes.Equal(appendSetup(nil, s), got.payload) && got.payload[16]&^setupHasShard == 0 {
						t.Fatal("accepted SETUP payload does not re-encode to itself")
					}
				} else if !errors.Is(err, ErrFrameCorrupt) {
					t.Fatalf("SETUP payload rejected with %v", err)
				}
			case frameResult:
				if res, err := decodeResult(got.payload); err == nil {
					if !bytes.Equal(appendResult(nil, res), got.payload) && got.payload[4]&^resultCancelled == 0 {
						t.Fatal("accepted RESULT payload does not re-encode to itself")
					}
				} else if !errors.Is(err, ErrFrameCorrupt) {
					t.Fatalf("RESULT payload rejected with %v", err)
				}
			}
			// A frame the reader accepts must survive re-encode →
			// re-read unchanged.
			reenc, err := appendFrame(nil, got, wire.GenCurrent)
			if err != nil {
				t.Fatalf("accepted frame fails re-encode: %v", err)
			}
			back, err := readFrame(bytes.NewReader(reenc))
			if err != nil {
				t.Fatalf("re-encoded frame fails re-read: %v", err)
			}
			if back.typ != got.typ || back.src != got.src || back.dst != got.dst || back.tag != got.tag || !bytes.Equal(back.payload, got.payload) {
				t.Fatal("frame did not survive re-encode round trip")
			}
		}
	})
}
