package collective

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

// RankOutcome is one rank's view of a finished (or cancelled) parallel
// run: the final extended-tile object, this rank's statistics, and
// whether the run stopped at a collective cancellation. Both parallel
// engines return it, and it is everything a remote worker must ship
// back to a coordinator for stitching — the distributed grid
// (internal/transport, internal/gridworker) serializes exactly this.
type RankOutcome struct {
	// Slices is the rank's reconstruction on its extended-tile bounds.
	Slices []*grid.Complex2D
	// CostHistory holds the all-reduced global cost per iteration
	// (identical on every rank).
	CostHistory []float64
	// Locations is the number of probe locations this rank reconstructed;
	// Owned counts only the ones it owns. They differ for Halo Voxel
	// Exchange, whose extra rows are reconstructed redundantly.
	Locations, Owned int
	// MemBytes estimates the rank's resident footprint.
	MemBytes int64
	// ComputeNS and CommNS are wall-clock nanoseconds spent in gradient
	// computation and in the directional passes (Gradient Decomposition
	// only).
	ComputeNS, CommNS int64
	// SentBytes and SentMessages count this rank's outgoing payload
	// traffic.
	SentBytes, SentMessages int64
	// Cancelled reports that the run stopped early at a collective
	// Ctx-cancellation decision; Slices then holds the partial state.
	Cancelled bool
}

// Result carries a stitched parallel reconstruction and its run
// statistics. The PerRank slices are indexed by rank.
type Result struct {
	// Slices is the stitched reconstruction (halos abandoned, interiors
	// concatenated — Alg 1 line 20).
	Slices []*grid.Complex2D
	// CostHistory holds the global cost F(V) per iteration.
	CostHistory []float64
	// BytesSent and MessagesSent aggregate all inter-rank exchanges.
	BytesSent    int64
	MessagesSent int64
	// PerRankLocations counts the probe locations each rank
	// reconstructed; PerRankOwned only the owned ones — the difference
	// is Halo Voxel Exchange's redundant-computation overhead.
	PerRankLocations []int
	PerRankOwned     []int
	// PerRankMemBytes estimates each rank's resident footprint.
	PerRankMemBytes []int64
	// PerRankComputeNS / PerRankCommNS are the measured wall-clock
	// nanoseconds each Gradient Decomposition rank spent in gradient
	// computation and in the directional passes (the functional
	// counterpart of Fig 7b's compute and wait+comm bars).
	PerRankComputeNS []int64
	PerRankCommNS    []int64
}

// Assemble stitches per-rank outcomes into the aggregate Result. outs
// must hold exactly mesh.NumTiles() outcomes in rank order. Traffic
// totals are summed from the outcomes, which is what a coordinator that
// received them over TCP has.
func Assemble(m *tiling.Mesh, outs []*RankOutcome) (*Result, error) {
	ranks := m.NumTiles()
	if len(outs) != ranks {
		return nil, fmt.Errorf("collective: %d outcomes for %d tiles", len(outs), ranks)
	}
	tiles := make([][]*grid.Complex2D, ranks)
	res := &Result{
		PerRankLocations: make([]int, ranks),
		PerRankOwned:     make([]int, ranks),
		PerRankMemBytes:  make([]int64, ranks),
		PerRankComputeNS: make([]int64, ranks),
		PerRankCommNS:    make([]int64, ranks),
	}
	for rank, out := range outs {
		if out == nil || len(out.Slices) == 0 {
			return nil, fmt.Errorf("collective: missing outcome for rank %d", rank)
		}
		tiles[rank] = out.Slices
		res.PerRankLocations[rank] = out.Locations
		res.PerRankOwned[rank] = out.Owned
		res.PerRankMemBytes[rank] = out.MemBytes
		res.PerRankComputeNS[rank] = out.ComputeNS
		res.PerRankCommNS[rank] = out.CommNS
		res.BytesSent += out.SentBytes
		res.MessagesSent += out.SentMessages
	}
	res.CostHistory = outs[0].CostHistory
	res.Slices = m.StitchSlices(tiles)
	return res, nil
}

// RunWorld runs rank once per mesh tile over an in-process world (one
// goroutine per rank) and assembles the outcomes. When the ranks
// stopped at a collective cancellation it returns the PARTIAL Result
// together with the error of ctx — the context the ranks watch, nil
// when they watch none.
func RunWorld(ctx context.Context, m *tiling.Mesh, timeout time.Duration,
	rank func(comm *simmpi.Comm) (*RankOutcome, error)) (*Result, error) {
	outs := make([]*RankOutcome, m.NumTiles())
	err := simmpi.Run(len(outs), timeout, func(comm *simmpi.Comm) error {
		out, err := rank(comm)
		outs[comm.Rank()] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := Assemble(m, outs)
	if err != nil {
		return nil, err
	}
	if outs[0].Cancelled {
		return res, ctx.Err()
	}
	return res, nil
}
