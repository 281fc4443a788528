package dataio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ptychopath/internal/grid"
	"ptychopath/internal/wire"
)

// Object checkpoints (OBJCKv1) persist a multi-slice complex object —
// a reconstruction in progress or a final result — so long runs can be
// resumed and results archived without recomputation.
//
// Layout: magic "OBJCKv1\x00", then 5 int64 (slices, x0, y0, w, h),
// then slices * w * h * 2 float64 (re, im interleaved, row-major).
// Because the bounds travel with the data, the format also carries
// grid-worker result tiles (transport.RankResult) — exact rectangles
// reassemble on the coordinator. Full spec: docs/FORMATS.md.

var objMagic = [8]byte{'O', 'B', 'J', 'C', 'K', 'v', '1', 0}

// objHeaderLen is the magic plus the five int64 header fields.
const objHeaderLen = 8 + 5*8

// Object-checkpoint resource caps (see ErrHeaderBounds in dataio.go).
const (
	maxObjectSlices = 1 << 16
	maxObjectDim    = 1 << 16
	objectPrealloc  = 1 << 20 // values (16 MiB) per slice before its rows arrive
)

// ErrSliceMismatch is returned by WriteObject when the slices do not
// form a consistent stack: empty input, bounds that differ between
// slices, or a data buffer whose length disagrees with its bounds.
// Serializing such a stack would silently produce a checkpoint that
// cannot resume the run it claims to hold.
var ErrSliceMismatch = errors.New("dataio: inconsistent object slices")

// checkObject validates a slice stack and returns its shared bounds.
func checkObject(slices []*grid.Complex2D) (grid.Rect, error) {
	if len(slices) == 0 {
		return grid.Rect{}, fmt.Errorf("%w: no slices to write", ErrSliceMismatch)
	}
	bounds := slices[0].Bounds
	for i, s := range slices {
		if s == nil {
			return grid.Rect{}, fmt.Errorf("%w: slice %d is nil", ErrSliceMismatch, i)
		}
		if s.Bounds != bounds {
			return grid.Rect{}, fmt.Errorf("%w: slice %d bounds %v != %v", ErrSliceMismatch, i, s.Bounds, bounds)
		}
		if len(s.Data) != bounds.Area() {
			return grid.Rect{}, fmt.Errorf("%w: slice %d has %d values for bounds %v (want %d)",
				ErrSliceMismatch, i, len(s.Data), bounds, bounds.Area())
		}
	}
	return bounds, nil
}

// appendObjectHeader appends the magic and the five header fields.
func appendObjectHeader(dst []byte, n int, bounds grid.Rect) []byte {
	dst = append(dst, objMagic[:]...)
	for _, v := range [...]int{n, bounds.X0, bounds.Y0, bounds.W(), bounds.H()} {
		dst = wire.AppendInt64(dst, int64(v))
	}
	return dst
}

// WriteObject serializes object slices (all sharing bounds) to w, one
// slice at a time through a single reused scratch.
func WriteObject(w io.Writer, slices []*grid.Complex2D) error {
	bounds, err := checkObject(slices)
	if err != nil {
		return err
	}
	buf := appendObjectHeader(make([]byte, 0, objHeaderLen+16*bounds.Area()), len(slices), bounds)
	for _, s := range slices {
		buf = wire.AppendComplex128s(buf, s.Data) // the header rides with slice 0
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	return nil
}

// AppendObject appends the OBJCKv1 encoding of slices to dst, growing
// it once to the exact size — the in-memory form of WriteObject, for
// the tiles that travel inside grid frames.
func AppendObject(dst []byte, slices []*grid.Complex2D) ([]byte, error) {
	bounds, err := checkObject(slices)
	if err != nil {
		return dst, err
	}
	return AppendObjectRegion(dst, slices, bounds)
}

// AppendObjectRegion appends exactly what AppendObject appends for the
// slices extracted to region, reading their rows in place. A region
// that is empty or leaves the slices' bounds is ErrSliceMismatch.
func AppendObjectRegion(dst []byte, slices []*grid.Complex2D, region grid.Rect) ([]byte, error) {
	bounds, err := checkObject(slices)
	if err != nil {
		return dst, err
	}
	if region.Empty() || !bounds.ContainsRect(region) {
		return dst, fmt.Errorf("%w: region %v outside bounds %v", ErrSliceMismatch, region, bounds)
	}
	if need := objHeaderLen + len(slices)*16*region.Area(); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = appendObjectHeader(dst, len(slices), region)
	for _, s := range slices {
		for y := region.Y0; y < region.Y1; y++ {
			dst = wire.AppendComplex128s(dst, s.Row(y)[region.X0-bounds.X0:region.X1-bounds.X0])
		}
	}
	return dst, nil
}

// ReadObject deserializes object slices from r.
func ReadObject(r io.Reader) ([]*grid.Complex2D, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("dataio: reading object magic: %w", err)
	}
	if m != objMagic {
		return nil, fmt.Errorf("dataio: bad object magic %q", m)
	}
	var header [5]int64
	if err := binary.Read(br, binary.LittleEndian, header[:]); err != nil {
		return nil, fmt.Errorf("dataio: reading object header: %w", err)
	}
	n := int(header[0])
	w, h := int(header[3]), int(header[4])
	// Bounds before any payload-sized allocation (see ErrHeaderBounds).
	if n <= 0 || n > maxObjectSlices {
		return nil, fmt.Errorf("%w: %d object slices (want 1..%d)", ErrHeaderBounds, n, maxObjectSlices)
	}
	if w <= 0 || h <= 0 || w > maxObjectDim || h > maxObjectDim {
		return nil, fmt.Errorf("%w: object %dx%d (want 1..%d per edge)", ErrHeaderBounds, w, h, maxObjectDim)
	}
	bounds := grid.RectWH(int(header[1]), int(header[2]), w, h)
	out := make([]*grid.Complex2D, n)
	row := make([]byte, 16*w) // one row of staging, reused
	for s := 0; s < n; s++ {
		// Up to objectPrealloc values are allocated on the header's word;
		// past that the slice doubles only as its rows arrive.
		data := make([]complex128, 0, min(w*h, objectPrealloc))
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, row); err != nil {
				return nil, fmt.Errorf("dataio: reading object slice %d: %w", s, err)
			}
			if cap(data)-len(data) < w {
				data = append(make([]complex128, 0, min(w*h, 2*cap(data))), data...)
			}
			data = data[:len(data)+w]
			wire.Complex128s(data[len(data)-w:], row)
		}
		out[s] = &grid.Complex2D{Bounds: bounds, Data: data}
	}
	return out, nil
}

// WriteObjectFile serializes object slices to the named file.
func WriteObjectFile(path string, slices []*grid.Complex2D) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return WriteObject(f, slices)
}

// WriteObjectFileAtomic serializes object slices to the named file via
// a temporary sibling and rename, so concurrent readers (and crashes
// mid-write) never observe a torn checkpoint. The temporary file is
// removed on error.
func WriteObjectFileAtomic(path string, slices []*grid.Complex2D) error {
	tmp := path + ".tmp"
	if err := WriteObjectFile(tmp, slices); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataio: %w", err)
	}
	return nil
}

// ReadObjectFile deserializes object slices from the named file.
func ReadObjectFile(path string) ([]*grid.Complex2D, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return ReadObject(f)
}
