package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// legacyFrame returns the frozen fixture of conformanceFrame as pre-v5
// peers framed their handshakes: the same bytes with the IEEE CRC-32
// in the trailer.
func legacyFrame(t testing.TB) []byte { return wiretest.Frozen(t, "frame_ieee.golden") }

// TestGoldenFrame pins the PTGW encoding, proves re-encode is
// bit-identical, and requires the same frame under the IEEE checksum
// to be rejected as corrupt.
func TestGoldenFrame(t *testing.T) {
	f := conformanceFrame()
	current, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "frame_castagnoli.golden", current)

	got, err := readFrame(bytes.NewReader(current))
	if err != nil {
		t.Fatal(err)
	}
	if got.typ != f.typ || got.src != f.src || got.dst != f.dst || got.tag != f.tag || !bytes.Equal(got.payload, f.payload) {
		t.Fatalf("decoded frame differs: %+v", got)
	}
	if reenc, err := appendFrame(nil, got); err != nil || !bytes.Equal(reenc, current) {
		t.Fatalf("re-encode is not bit-identical (%v)", err)
	}

	legacy := legacyFrame(t)
	body := len(legacy) - 4
	if !bytes.Equal(legacy[:body], current[:body]) || wire.Uint32(legacy[body:]) != crc32.ChecksumIEEE(legacy[4:body]) {
		t.Fatal("fixture is not the golden frame with an IEEE checksum in the trailer")
	}
	if _, err := readFrame(bytes.NewReader(legacy)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("IEEE-checksummed frame: %v, want ErrFrameCorrupt", err)
	}
}

// TestFrameCodecAllocs is the allocation-budget guard for the
// transport hot path: appending into a warm batch buffer is
// zero-alloc, and a warm frameReader spends at most the payload slice
// header it hands back.
func TestFrameCodecAllocs(t *testing.T) {
	f := conformanceFrame()
	buf, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf...)

	encAllocs := testing.AllocsPerRun(100, func() {
		buf, err = appendFrame(buf[:0], f)
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

// TestV3WorkerRefused: there is one protocol generation. A worker
// announcing any other version number — older or newer — is turned away
// at the handshake with a typed version error. A pre-v5 worker does not
// get that far: its HELLO carries the IEEE checksum, which is a corrupt
// frame, and the hub hangs up without a word.
func TestV3WorkerRefused(t *testing.T) {
	h := startHub(t)
	hello := func(t *testing.T, version uint32, ieee bool) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", h.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		raw, err := appendFrame(nil, frame{typ: frameHello, dst: hubRank,
			payload: append(wire.AppendUint32(nil, version), "other-worker"...)})
		if err != nil {
			t.Fatal(err)
		}
		if body := len(raw) - 4; ieee {
			binary.LittleEndian.PutUint32(raw[body:], crc32.ChecksumIEEE(raw[4:body]))
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	for _, v := range []uint32{3, 4, 6} {
		conn := hello(t, v, false)
		fr, err := readFrame(conn)
		if err != nil || fr.typ != frameError {
			t.Fatalf("v%d HELLO: frame %+v, err %v; want an ERROR frame", v, fr, err)
		}
		if err := decodeError(fr.payload); !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("worker sent v%d", v)) {
			t.Fatalf("refusal decodes to %v, want ErrVersionMismatch naming v%d", err, v)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("hub kept the connection open after refusing v%d: %v", v, err)
		}
	}
	for _, v := range []uint32{4, ProtoVersion} {
		conn := hello(t, v, true)
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("IEEE-framed v%d HELLO: read %d bytes, err %v; want a hang-up", v, n, err)
		}
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
	current, err := appendFrame(nil, fr)
	if err != nil {
		f.Fatal(err)
	}
	// Shared corpus: truncations at the structural boundaries around
	// the length field (offset 17 = magic+type+src+dst+tag), CRC
	// bit-flips, and 8-byte length lies that also clobber payload.
	for _, m := range wiretest.Mutations(current, 17) {
		f.Add(m)
	}
	// The frozen IEEE-checksummed frame and its mutations: all corrupt.
	for _, m := range wiretest.Mutations(legacyFrame(f), 17) {
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
		raw, err := appendFrame(nil, v4)
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
			reenc, err := appendFrame(nil, got)
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
