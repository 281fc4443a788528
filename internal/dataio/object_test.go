package dataio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ptychopath/internal/grid"
)

func randObject(rng *rand.Rand, bounds grid.Rect, n int) []*grid.Complex2D {
	out := make([]*grid.Complex2D, n)
	for s := range out {
		a := grid.NewComplex2D(bounds)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		out[s] = a
	}
	return out
}

func TestObjectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Non-origin bounds exercise the offset fields (tile checkpoints).
	bounds := grid.NewRect(10, -5, 42, 19)
	obj := randObject(rng, bounds, 3)
	var buf bytes.Buffer
	if err := WriteObject(&buf, obj); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("slice count %d", len(got))
	}
	for s := range obj {
		if got[s].Bounds != bounds {
			t.Fatalf("slice %d bounds %v, want %v", s, got[s].Bounds, bounds)
		}
		if got[s].MaxDiff(obj[s]) > 0 {
			t.Fatalf("slice %d content mismatch", s)
		}
	}
}

// TestObjectRoundTripPastPrealloc: a slice larger than the decoder
// allocates up front still decodes whole.
func TestObjectRoundTripPastPrealloc(t *testing.T) {
	obj := randObject(rand.New(rand.NewSource(5)), grid.RectWH(-3, 4, 1031, objectPrealloc/1024), 1)
	enc, err := AppendObject(nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadObject(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Bounds != obj[0].Bounds || got[0].MaxDiff(obj[0]) > 0 {
		t.Fatal("round trip past the preallocation differs")
	}
}

func TestObjectFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	obj := randObject(rng, grid.RectWH(0, 0, 16, 12), 2)
	path := filepath.Join(t.TempDir(), "ck.obj")
	if err := WriteObjectFile(path, obj); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObjectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].MaxDiff(obj[1]) > 0 {
		t.Fatal("file round trip mismatch")
	}
}

func TestWriteObjectRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObject(&buf, nil); !errors.Is(err, ErrSliceMismatch) {
		t.Fatalf("empty object: got %v, want ErrSliceMismatch", err)
	}
}

func TestWriteObjectRejectsMismatchedBounds(t *testing.T) {
	obj := []*grid.Complex2D{
		grid.NewComplex2DSize(4, 4),
		grid.NewComplex2DSize(5, 4),
	}
	var buf bytes.Buffer
	if err := WriteObject(&buf, obj); !errors.Is(err, ErrSliceMismatch) {
		t.Fatalf("mismatched bounds: got %v, want ErrSliceMismatch", err)
	}
	if buf.Len() != 0 {
		t.Errorf("rejected write still emitted %d bytes", buf.Len())
	}
}

func TestWriteObjectRejectsInconsistentData(t *testing.T) {
	// A slice whose data buffer disagrees with its bounds must not
	// serialize: the header would promise w*h values per slice and the
	// payload would deliver something else.
	good := grid.NewComplex2DSize(4, 4)
	bad := grid.NewComplex2DSize(4, 4)
	bad.Data = bad.Data[:10]
	var buf bytes.Buffer
	if err := WriteObject(&buf, []*grid.Complex2D{good, bad}); !errors.Is(err, ErrSliceMismatch) {
		t.Fatalf("short data buffer: got %v, want ErrSliceMismatch", err)
	}
	if err := WriteObject(&buf, []*grid.Complex2D{good, nil}); !errors.Is(err, ErrSliceMismatch) {
		t.Fatalf("nil slice: got %v, want ErrSliceMismatch", err)
	}
}

// TestAppendObjectRegion: encoding a region in place is byte for byte
// the encoding of the extracted region, after whatever dst held.
func TestAppendObjectRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name           string
		bounds, region grid.Rect
	}{
		{"whole bounds", grid.RectWH(0, 0, 9, 7), grid.RectWH(0, 0, 9, 7)},
		{"interior", grid.RectWH(0, 0, 9, 7), grid.NewRect(2, 1, 6, 5)},
		{"off-origin bounds", grid.NewRect(10, -5, 42, 19), grid.NewRect(11, -5, 42, 3)},
	} {
		obj := randObject(rng, tc.bounds, 3)
		extracted := make([]*grid.Complex2D, len(obj))
		for i, a := range obj {
			extracted[i] = a.Extract(tc.region)
		}
		want, err := AppendObject([]byte("prefix"), extracted)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendObjectRegion([]byte("prefix"), obj, tc.region)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: AppendObjectRegion differs from AppendObject of the extract (err %v)", tc.name, err)
		}
	}
}

func TestAppendObjectRegionRejectsBadRegion(t *testing.T) {
	obj := randObject(rand.New(rand.NewSource(4)), grid.NewRect(2, 2, 10, 10), 2)
	for _, region := range []grid.Rect{
		grid.NewRect(1, 2, 10, 10),   // left of the bounds
		grid.NewRect(2, 2, 10, 11),   // below them
		grid.NewRect(20, 20, 30, 30), // disjoint
		grid.NewRect(4, 4, 4, 8),     // empty
	} {
		if got, err := AppendObjectRegion(nil, obj, region); !errors.Is(err, ErrSliceMismatch) || len(got) != 0 {
			t.Errorf("region %v: got %d bytes, %v; want ErrSliceMismatch", region, len(got), err)
		}
	}
}

func TestReadObjectRejectsGarbage(t *testing.T) {
	if _, err := ReadObject(strings.NewReader("not an object checkpoint at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Dataset magic is not object magic.
	if _, err := ReadObject(strings.NewReader("PTYCHSv2xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("dataset file accepted as object")
	}
}

func TestReadObjectRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	obj := randObject(rng, grid.RectWH(0, 0, 8, 8), 2)
	var buf bytes.Buffer
	if err := WriteObject(&buf, obj); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 20, len(data) / 2, len(data) - 1} {
		if _, err := ReadObject(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestReadObjectLyingHeader: a header within the caps that promises a
// 64 GiB slice and sends nothing is a truncation error, not an
// allocation of what it promised.
func TestReadObjectLyingHeader(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write(objMagic[:])
	for _, v := range []int64{1, 0, 0, maxObjectDim - 1, maxObjectDim - 1} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadObject(&hdr); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want a truncation error", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("a 48-byte input allocated %d MiB", grew>>20)
	}
}
