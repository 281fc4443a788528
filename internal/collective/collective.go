// Package collective holds the small collective-operation helpers the
// parallel reconstruction engines (gradsync, halo) share: the rank-0
// snapshot gather and the all-reduced cancellation decision. Keeping
// them in one place keeps the subtle ordering invariants — which rank
// sends what when, and why every rank must reach the same verdict —
// from drifting between the two engines.
//
// Both helpers are written against simmpi.Transport, so they behave
// identically whether the world is goroutines in one process or worker
// processes on a TCP grid (internal/transport).
package collective

import (
	"context"
	"errors"
	"fmt"

	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

// TagSnapshot is the reserved message tag of the snapshot gather. The
// engines' own exchange tags stay below it.
const TagSnapshot = 1000

// ErrSnapshotCallback is returned on every rank other than 0 when rank
// 0's snapshot callback failed: the collective verdict travels through
// an allreduce, the concrete error only exists on rank 0 (which returns
// it directly, and which the in-process and grid drivers both surface
// first).
var ErrSnapshotCallback = errors.New("collective: snapshot callback failed on rank 0")

// Snapshots coordinates periodic rank-0 object snapshots across a
// world: each rank ships its interior tile to rank 0 over the
// transport, rank 0 stitches the full image and runs the callback, and
// the callback's verdict reaches every rank through an allreduce. Only
// interior tiles travel — stitching abandons halos anyway — so the
// gather costs one tile-sized message per non-zero rank.
//
// Every rank of a world must construct Snapshots with the same mesh and
// period, and call Due/Run at the same iterations; the gather blocks
// rank 0 until every peer has sent.
type Snapshots struct {
	mesh  *tiling.Mesh
	every int
	fn    func(iter int, slices []*grid.Complex2D) error

	// cbErr carries rank 0's callback error between the gather and the
	// verdict allreduce within one Run call (other ranks never write
	// it; Snapshots is per-rank state, never shared).
	cbErr error
}

// NewSnapshots returns the per-rank snapshot state, or nil (a no-op for
// Due) when snapshots are not configured. fn runs on rank 0 only; ranks
// that can never be rank 0 may pass a callback that is never invoked,
// but every rank must agree on whether snapshots are configured at all
// (nil-ness of fn and the period) or the gather deadlocks.
func NewSnapshots(mesh *tiling.Mesh, every int,
	fn func(iter int, slices []*grid.Complex2D) error) *Snapshots {
	if every <= 0 || fn == nil {
		return nil
	}
	return &Snapshots{mesh: mesh, every: every, fn: fn}
}

// Due reports whether a snapshot is owed after the given 0-based
// iteration. The verdict depends only on configuration and iter, so it
// is identical on every rank — a requirement, since Run is collective.
func (s *Snapshots) Due(iter int) bool {
	return s != nil && (iter+1)%s.every == 0
}

// Run performs one snapshot gather. Every rank must call it at the same
// iteration with its own slices (on bounds covering its interior tile).
// Rank 0 receives the stitched full-image object, freshly allocated —
// the callback may retain it. All ranks fail together when the callback
// errors: rank 0 returns the callback's error, the others
// ErrSnapshotCallback.
func (s *Snapshots) Run(comm simmpi.Transport, slices []*grid.Complex2D, iter int) error {
	m := s.mesh
	if comm.Rank() == 0 {
		tiles := make([][]*grid.Complex2D, m.NumTiles())
		tiles[0] = slices
		for rank := 1; rank < comm.Size(); rank++ {
			data, err := comm.Recv(rank, TagSnapshot)
			if err != nil {
				return err
			}
			r, c := m.RowCol(rank)
			tile, err := UnpackTile(data, m.Tile(r, c), len(slices))
			comm.Release(data) // UnpackTile copied
			if err != nil {
				return err
			}
			tiles[rank] = tile
		}
		s.cbErr = s.fn(iter, m.StitchSlices(tiles))
	} else {
		r, c := m.RowCol(comm.Rank())
		comm.Send(0, TagSnapshot, PackRegion(nil, slices, m.Tile(r, c)))
	}
	return s.verdict(comm)
}

// verdict broadcasts whether rank 0's callback failed and turns the
// flag back into an error on every rank.
func (s *Snapshots) verdict(comm simmpi.Transport) error {
	flag := 0.0
	if comm.Rank() == 0 && s.cbErr != nil {
		flag = 1
	}
	tot, err := comm.AllreduceSum(flag)
	if err != nil {
		return err
	}
	if tot > 0 {
		if comm.Rank() == 0 {
			err := s.cbErr
			s.cbErr = nil
			return err
		}
		return ErrSnapshotCallback
	}
	return nil
}

// PackRegion flattens the given region of each slice into one payload,
// slices-major, row-major within a slice — the layout UnpackRegion,
// UnpackTile and the engines' overlap exchanges share. The payload is
// built in dst's storage when it is large enough (its contents are
// overwritten; nil allocates), so an engine packs every message of a run
// into one scratch that grows to its largest overlap rectangle.
func PackRegion(dst []complex128, arrs []*grid.Complex2D, region grid.Rect) []complex128 {
	out := dst[:0]
	if n := region.Area() * len(arrs); cap(out) < n {
		out = make([]complex128, 0, n)
	}
	for _, a := range arrs {
		for y := region.Y0; y < region.Y1; y++ {
			row := a.Row(y)
			x0 := region.X0 - a.Bounds.X0
			out = append(out, row[x0:x0+region.W()]...)
		}
	}
	return out
}

// UnpackRegion overwrites the given region of each array with a
// PackRegion payload of exactly that region.
func UnpackRegion(arrs []*grid.Complex2D, region grid.Rect, data []complex128) error {
	if len(data) != region.Area()*len(arrs) {
		return fmt.Errorf("collective: payload %d for region %v x %d slices",
			len(data), region, len(arrs))
	}
	k := 0
	for _, a := range arrs {
		for y := region.Y0; y < region.Y1; y++ {
			row := a.Row(y)
			x0 := region.X0 - a.Bounds.X0
			copy(row[x0:x0+region.W()], data[k:k+region.W()])
			k += region.W()
		}
	}
	return nil
}

// UnpackTile materializes a PackRegion payload as freshly allocated
// arrays on exactly the packed bounds.
func UnpackTile(data []complex128, bounds grid.Rect, slices int) ([]*grid.Complex2D, error) {
	if len(data) != bounds.Area()*slices {
		return nil, fmt.Errorf("collective: payload %d for tile %v x %d slices",
			len(data), bounds, slices)
	}
	out := make([]*grid.Complex2D, slices)
	k := bounds.Area()
	for s := range out {
		out[s] = grid.NewComplex2D(bounds)
		copy(out[s].Data, data[s*k:(s+1)*k])
	}
	return out, nil
}

// Cancelled makes the collective cancellation decision at an iteration
// boundary: a rank may observe ctx done slightly before its peers, so
// every rank contributes its view to an allreduce and the verdict is
// identical everywhere — all ranks stop together, no deadlocked
// exchanges. A nil ctx never cancels (and performs no allreduce, so
// runs without a context keep their exact communication volume).
func Cancelled(comm simmpi.Transport, ctx context.Context) (bool, error) {
	if ctx == nil {
		return false, nil
	}
	flag := 0.0
	if ctx.Err() != nil {
		flag = 1
	}
	tot, err := comm.AllreduceSum(flag)
	if err != nil {
		return false, err
	}
	return tot > 0, nil
}
