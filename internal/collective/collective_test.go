package collective

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

const testTimeout = 10 * time.Second

// image is a 2-slice object on bounds whose texel (x, y) of slice s
// holds complex(1000*s+x, y): any misplaced texel shows.
func image(bounds grid.Rect) []*grid.Complex2D {
	out := make([]*grid.Complex2D, 2)
	for s := range out {
		a := grid.NewComplex2D(bounds)
		for y := bounds.Y0; y < bounds.Y1; y++ {
			for x := bounds.X0; x < bounds.X1; x++ {
				a.Set(x, y, complex(float64(1000*s+x), float64(y)))
			}
		}
		out[s] = a
	}
	return out
}

func TestPackRegionUnpackTileRoundTrip(t *testing.T) {
	full := image(grid.RectWH(-3, 2, 11, 9))
	region := grid.Rect{X0: 0, Y0: 4, X1: 5, Y1: 10}
	data := PackRegion(nil, full, region)
	if len(data) != region.Area()*len(full) {
		t.Fatalf("payload of %d values for %v x %d slices", len(data), region, len(full))
	}
	tile, err := UnpackTile(data, region, len(full))
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range tile {
		if !a.Bounds.Eq(region) || !slices.Equal(a.Data, full[s].Extract(region).Data) {
			t.Errorf("slice %d: unpacked tile on %v differs from the packed region %v", s, a.Bounds, region)
		}
	}
	if _, err := UnpackTile(data[1:], region, len(full)); err == nil {
		t.Error("a short payload unpacked without error")
	}
}

// TestSnapshotsGather runs a 2x2 world through two iterations with a
// period of 2: rank 0's callback must see, once, the full image
// stitched from the four interior tiles, though every rank holds its
// tile on halo-extended bounds.
func TestSnapshotsGather(t *testing.T) {
	bounds := grid.RectWH(0, 0, 13, 10)
	mesh, err := tiling.NewMesh(bounds, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := image(bounds)
	var gotIters []int
	var got []*grid.Complex2D
	err = simmpi.Run(mesh.NumTiles(), testTimeout, func(comm *simmpi.Comm) error {
		snaps := NewSnapshots(mesh, 2, func(iter int, s []*grid.Complex2D) error {
			gotIters, got = append(gotIters, iter), s
			return nil
		})
		r, c := mesh.RowCol(comm.Rank())
		ext := mesh.Extended(r, c)
		mine := make([]*grid.Complex2D, len(full))
		for s, a := range full {
			mine[s] = a.Extract(ext)
		}
		for iter := 0; iter < 2; iter++ {
			if !snaps.Due(iter) {
				continue
			}
			if err := snaps.Run(comm, mine, iter); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotIters, []int{1}) {
		t.Fatalf("callback ran at iterations %v, want [1]", gotIters)
	}
	for s, a := range got {
		if !a.Bounds.Eq(bounds) || !slices.Equal(a.Data, full[s].Data) {
			t.Errorf("slice %d: stitched snapshot differs from the image (max diff %g)", s, a.MaxDiff(full[s]))
		}
	}
	if NewSnapshots(mesh, 0, func(int, []*grid.Complex2D) error { return nil }).Due(0) {
		t.Error("snapshots with no period are due")
	}
}

// TestSnapshotCallbackErrorReachesEveryRank: rank 0 returns the
// callback's own error, every other rank ErrSnapshotCallback, and
// nobody is left waiting.
func TestSnapshotCallbackErrorReachesEveryRank(t *testing.T) {
	bounds := grid.RectWH(0, 0, 8, 8)
	mesh, err := tiling.NewMesh(bounds, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := image(bounds)
	boom := errors.New("disk full")
	errs := make([]error, mesh.NumTiles())
	if err := simmpi.Run(mesh.NumTiles(), testTimeout, func(comm *simmpi.Comm) error {
		snaps := NewSnapshots(mesh, 1, func(int, []*grid.Complex2D) error { return boom })
		errs[comm.Rank()] = snaps.Run(comm, full, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		want := ErrSnapshotCallback
		if rank == 0 {
			want = boom
		}
		if !errors.Is(err, want) {
			t.Errorf("rank %d: error %v, want %v", rank, err, want)
		}
	}
}

// TestCancelled: one rank seeing its context done stops all of them at
// the same boundary; a nil context never cancels and sends nothing.
func TestCancelled(t *testing.T) {
	live := context.Background()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  func(rank int) context.Context
		want bool
	}{
		{"nobody", func(int) context.Context { return live }, false},
		{"rank 2 only", func(rank int) context.Context {
			if rank == 2 {
				return done
			}
			return live
		}, true},
		{"nil context", func(int) context.Context { return nil }, false},
	} {
		verdicts := make([]bool, 4)
		var msgs int64
		if err := simmpi.Run(len(verdicts), testTimeout, func(comm *simmpi.Comm) error {
			v, err := Cancelled(comm, tc.ctx(comm.Rank()))
			verdicts[comm.Rank()] = v
			if comm.Rank() == 0 {
				msgs = comm.SentMessages()
			}
			return err
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rank, v := range verdicts {
			if v != tc.want {
				t.Errorf("%s: rank %d decided %v, want %v", tc.name, rank, v, tc.want)
			}
		}
		if tc.ctx(0) == nil && msgs != 0 {
			t.Errorf("%s: rank 0 sent %d messages, want none", tc.name, msgs)
		}
	}
}
