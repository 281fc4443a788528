// Package dataio defines the binary on-disk dataset format used by the
// command-line tools: a self-describing container holding the scan
// pattern, probe wavefunction, propagator, and per-location diffraction
// amplitudes. The format is little-endian and versioned.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "PTYCHOv1"
//	header  9 x int64: windowN, slices, imageW, imageH, numLocations,
//	                   hasProp (0/1), stepPix*1e6, radiusPix*1e6, reserved
//	probe   2*windowN^2 float64 (re, im interleaved)
//	prop    2*windowN^2 float64 (present when hasProp == 1)
//	locs    numLocations x (int64 index, float64 x, y, radius)
//	meas    numLocations x windowN^2 float64 amplitudes
//
// The complete byte-level specification of every format in this
// package — PTYCHOv1, the OBJCKv1 object checkpoint and the PTYCHS
// incremental stream — together with the grid transport's PTGW wire
// frames, lives in docs/FORMATS.md.
package dataio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"ptychopath/internal/grid"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

var magic = [8]byte{'P', 'T', 'Y', 'C', 'H', 'O', 'v', '1'}

// ErrHeaderBounds is returned by every reader in this package when a
// header declares dimensions outside the decoder's resource caps —
// frame (window) size, slice count, location count, image extent. The
// check runs BEFORE any payload-sized allocation, so a hostile or
// corrupt header can never commit the process to multi-gigabyte
// buffers it will immediately throw away.
var ErrHeaderBounds = errors.New("dataio: header dimensions out of bounds")

// Decoder resource caps. Generous for any real acquisition, small
// enough that a header passing them cannot demand a problematic
// allocation up front.
const (
	maxWindowN   = 4096
	maxSlices    = 1 << 14
	maxLocations = 1 << 20
	maxImageDim  = 1 << 20
)

// checkDatasetHeader bounds the PTYCHOv1 / PTYCHS geometry fields.
func checkDatasetHeader(windowN, slices, imageW, imageH, numLoc int) error {
	switch {
	case windowN <= 0 || windowN > maxWindowN:
		return fmt.Errorf("%w: window %d (want 1..%d)", ErrHeaderBounds, windowN, maxWindowN)
	case slices <= 0 || slices > maxSlices:
		return fmt.Errorf("%w: %d slices (want 1..%d)", ErrHeaderBounds, slices, maxSlices)
	case imageW <= 0 || imageW > maxImageDim || imageH <= 0 || imageH > maxImageDim:
		return fmt.Errorf("%w: image %dx%d (want 1..%d per edge)", ErrHeaderBounds, imageW, imageH, maxImageDim)
	case numLoc < 0 || numLoc > maxLocations:
		return fmt.Errorf("%w: %d locations (want 0..%d)", ErrHeaderBounds, numLoc, maxLocations)
	}
	return nil
}

// Write serializes a problem to w.
func Write(w io.Writer, prob *solver.Problem) error {
	if err := prob.Validate(); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hasProp := int64(0)
	if prob.Prop != nil {
		hasProp = 1
	}
	header := []int64{
		int64(prob.WindowN), int64(prob.Slices),
		int64(prob.Pattern.ImageW), int64(prob.Pattern.ImageH),
		int64(prob.Pattern.N()), hasProp,
		int64(math.Round(prob.Pattern.StepPix * 1e6)),
		int64(math.Round(prob.Pattern.RadiusPix * 1e6)),
		0,
	}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	if err := writeComplex(bw, prob.Probe); err != nil {
		return err
	}
	if prob.Prop != nil {
		if err := writeComplex(bw, prob.Prop); err != nil {
			return err
		}
	}
	// One row of scratch carries every location and measurement to bw:
	// nothing is allocated per element.
	row := make([]byte, 0, 8*prob.WindowN*prob.WindowN)
	for _, l := range prob.Pattern.Locations {
		row = wire.AppendInt64(row[:0], int64(l.Index))
		row = wire.AppendFloat64(row, l.X)
		row = wire.AppendFloat64(row, l.Y)
		row = wire.AppendFloat64(row, l.Radius)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	for _, m := range prob.Meas {
		row = wire.AppendFloat64s(row[:0], m.Data)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeComplex(w io.Writer, a *grid.Complex2D) error {
	_, err := w.Write(wire.AppendComplex128s(make([]byte, 0, 16*len(a.Data)), a.Data))
	return err
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

// Read deserializes a problem from r.
func Read(r io.Reader) (*solver.Problem, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("dataio: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("dataio: bad magic %q (not a PTYCHOv1 file)", m)
	}
	header := make([]int64, 9)
	if err := binary.Read(br, binary.LittleEndian, header); err != nil {
		return nil, fmt.Errorf("dataio: reading header: %w", err)
	}
	windowN := int(header[0])
	slices := int(header[1])
	imageW, imageH := int(header[2]), int(header[3])
	numLoc := int(header[4])
	hasProp := header[5] == 1
	if err := checkDatasetHeader(windowN, slices, imageW, imageH, numLoc); err != nil {
		return nil, err
	}
	probe, err := readComplex(br, windowN)
	if err != nil {
		return nil, fmt.Errorf("dataio: reading probe: %w", err)
	}
	var prop *grid.Complex2D
	if hasProp {
		if prop, err = readComplex(br, windowN); err != nil {
			return nil, fmt.Errorf("dataio: reading propagator: %w", err)
		}
	}
	pat := &scan.Pattern{
		ImageW: imageW, ImageH: imageH,
		StepPix:   float64(header[6]) / 1e6,
		RadiusPix: float64(header[7]) / 1e6,
	}
	pat.Locations = make([]scan.Location, numLoc)
	// One row of scratch is refilled for every location and measurement;
	// the only allocations left are the arrays the problem keeps.
	row := make([]byte, max(32, 8*windowN*windowN))
	for i := range pat.Locations {
		if _, err := io.ReadFull(br, row[:32]); err != nil {
			return nil, fmt.Errorf("dataio: reading location %d: %w", i, err)
		}
		pat.Locations[i] = scan.Location{
			Index: int(wire.Int64(row)), X: wire.Float64(row[8:]),
			Y: wire.Float64(row[16:]), Radius: wire.Float64(row[24:]),
		}
	}
	meas := make([]*grid.Float2D, numLoc)
	row = row[:8*windowN*windowN]
	for i := range meas {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("dataio: reading measurement %d: %w", i, err)
		}
		a := grid.NewFloat2DSize(windowN, windowN)
		wire.Float64s(a.Data, row)
		meas[i] = a
	}
	prob := &solver.Problem{
		Pattern: pat, Meas: meas, Probe: probe, Prop: prop,
		WindowN: windowN, Slices: slices,
	}
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("dataio: loaded problem invalid: %w", err)
	}
	return prob, nil
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
