package wire

import (
	"bytes"
	"hash/crc32"
	"io"
	"testing"
)

func TestChecksum(t *testing.T) {
	p := []byte("the quick brown fox jumps over the lazy dog")
	if got, want := Checksum(p), crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Fatalf("checksum %08x, want Castagnoli %08x", got, want)
	}
	if Checksum(p) == crc32.ChecksumIEEE(p) {
		t.Fatal("Castagnoli and IEEE agree on a non-trivial payload — table mixup")
	}
	// The empty payload checksums to 0 — the EOF-chunk invariant
	// FORMATS.md documents.
	if Checksum(nil) != 0 {
		t.Fatal("empty payload checksum is not 0")
	}
	// Update must continue exactly like a one-shot checksum.
	if crc := Update(Update(0, p[:7]), p[7:]); crc != Checksum(p) {
		t.Fatalf("split Update %08x != Checksum %08x", crc, Checksum(p))
	}
}

// TestVerifyIsOneCastagnoliPass: the IEEE sum that pre-Castagnoli
// writers framed with is a mismatch like any other.
func TestVerifyIsOneCastagnoliPass(t *testing.T) {
	p := []byte("payload")
	if _, ok := Verify(Checksum(p), p); !ok {
		t.Fatal("Castagnoli sum rejected")
	}
	want, ok := Verify(crc32.ChecksumIEEE(p), p)
	if ok {
		t.Fatal("IEEE sum accepted")
	}
	if want != Checksum(p) {
		t.Fatalf("Verify want = %08x, want the checksum %08x", want, Checksum(p))
	}
	if _, ok := Verify(Checksum(p)^1, p); ok {
		t.Fatal("corrupt sum accepted")
	}
}

func TestScalarRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 1<<60)
	b = AppendInt64(b, -42)
	b = AppendFloat64(b, 3.25)
	if Uint32(b) != 0xDEADBEEF || Uint64(b[4:]) != 1<<60 || Int64(b[12:]) != -42 || Float64(b[20:]) != 3.25 {
		t.Fatalf("scalar round trip failed: % x", b)
	}

	f := []float64{0, -1.5, 1e300, -0.0}
	fb := AppendFloat64s(nil, f)
	got := make([]float64, len(f))
	Float64s(got, fb)
	for i := range f {
		if got[i] != f[i] && !(f[i] == 0 && got[i] == 0) {
			t.Fatalf("float64 %d: %g != %g", i, got[i], f[i])
		}
	}

	c := []complex128{complex(1, -2), complex(0, 3.5)}
	cb := AppendComplex128s(nil, c)
	gotC := make([]complex128, len(c))
	Complex128s(gotC, cb)
	for i := range c {
		if gotC[i] != c[i] {
			t.Fatalf("complex %d: %v != %v", i, gotC[i], c[i])
		}
	}
}

func TestChunkFraming(t *testing.T) {
	payload := []byte("hello chunk")
	one := AppendChunk(nil, 'F', payload)

	// BeginChunk/EndChunk building the payload in place must produce
	// the identical bytes.
	two, start := BeginChunk(nil, 'F')
	two = append(two, payload...)
	two = EndChunk(two, start)
	if !bytes.Equal(one, two) {
		t.Fatalf("AppendChunk % x != Begin/End % x", one, two)
	}

	if one[0] != 'F' || Uint64(one[1:]) != uint64(len(payload)) {
		t.Fatalf("bad chunk header % x", one[:9])
	}
	sum := Uint32(one[len(one)-4:])
	if sum != Checksum(payload) {
		t.Fatalf("chunk crc %08x != %08x", sum, Checksum(payload))
	}
	if _, ok := Verify(sum, payload); !ok {
		t.Fatal("Verify rejects its own framing")
	}
	if len(one) != len(payload)+ChunkOverhead {
		t.Fatalf("chunk length %d, want %d", len(one), len(payload)+ChunkOverhead)
	}
}

func TestReadCapped(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 3*readStep/2) // forces two increments
	got, err := ReadCapped(bytes.NewReader(data), nil, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadCapped corrupted the payload")
	}

	// Lying length: a reader that runs dry mid-payload reports
	// ErrUnexpectedEOF without having read more than what arrived.
	if _, err := ReadCapped(bytes.NewReader(data[:10]), nil, 1<<40); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}

	// Scratch reuse: with a warm scratch the read allocates nothing.
	scratch := make([]byte, 0, len(data))
	r := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(data)
		buf, err := ReadCapped(r, scratch, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		scratch = buf
	})
	if allocs != 0 {
		t.Fatalf("warm ReadCapped allocates %.1f/op, want 0", allocs)
	}
}

// drip yields one byte at a time — exercises the io.ReadFull loop.
type drip struct{ rest []byte }

func (d *drip) Read(p []byte) (int, error) {
	if len(d.rest) == 0 {
		return 0, io.EOF
	}
	p[0] = d.rest[0]
	d.rest = d.rest[1:]
	return 1, nil
}

func TestReadCappedShortReads(t *testing.T) {
	data := []byte("short-read payload")
	got, err := ReadCapped(&drip{rest: data}, nil, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadCapped mishandled short reads")
	}
}

// TestPortableMatchesFastPath pins the big-endian fallback loops to
// the memcpy fast path: both directions, both element types.
func TestPortableMatchesFastPath(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("host is big-endian; the fallback IS the only path")
	}
	floats := []float64{0, 1, -2.5, 3e300, -4e-300}
	cplx := []complex128{complex(1, -2), complex(-3e7, 4e-7)}
	fastF := AppendFloat64s(nil, floats)
	fastC := AppendComplex128s(nil, cplx)
	hostLittleEndian = false
	slowF := AppendFloat64s(nil, floats)
	slowC := AppendComplex128s(nil, cplx)
	gotF := make([]float64, len(floats))
	gotC := make([]complex128, len(cplx))
	Float64s(gotF, fastF)
	Complex128s(gotC, fastC)
	hostLittleEndian = true
	if !bytes.Equal(fastF, slowF) || !bytes.Equal(fastC, slowC) {
		t.Fatal("fast and portable encodings differ")
	}
	for i := range floats {
		if gotF[i] != floats[i] {
			t.Fatalf("float64 %d: %v != %v", i, gotF[i], floats[i])
		}
	}
	for i := range cplx {
		if gotC[i] != cplx[i] {
			t.Fatalf("complex128 %d: %v != %v", i, gotC[i], cplx[i])
		}
	}
}
