// Package halo implements the state-of-the-art baseline the paper
// compares against: the Halo Voxel Exchange method (Nashed et al. 2014,
// Yu et al. 2021; paper Sec. II-C).
//
// Each tile is assigned its own probe locations PLUS the neighboring
// locations within ExtraRows scan rows of its boundary (Fig 2(d)), and
// its halo is widened to cover all of them. Tiles then reconstruct
// independently — including redundant work for the extra locations —
// and, every exchange period, paste their interior voxels into all
// neighbors' halos through synchronous point-to-point communication
// (Fig 2(g)). The copy-paste overwrite is what produces the seam
// artifacts of Fig 8, and the widened halos are what limit memory
// reduction and scalability (Tables II/III).
//
// The method carries an inherent tile-size constraint: a tile must be at
// least as large as its neighbors' halos, or the pasted region cannot be
// sourced from a single owner. At high GPU counts tiles shrink below the
// halo width and the method cannot run — reproduced here as
// ErrTileTooSmall and reported as "NA", matching Table II(b).
package halo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// ErrTileTooSmall reports the baseline's algorithmic scaling limit: the
// interior tile is smaller than the halo that neighbors need pasted.
var ErrTileTooSmall = errors.New("halo: tile smaller than neighbor halo width (method cannot scale this far; see Table II(b) 'NA')")

// Options configures a Halo Voxel Exchange reconstruction.
type Options struct {
	Mesh *tiling.Mesh
	// HaloWidth is the voxel-exchange halo in pixels. The paper uses a
	// wider halo than Gradient Decomposition (890 pm vs 600 pm) because
	// it must cover the extra probe locations. Must be >= Mesh.Halo.
	HaloWidth int
	// ExtraRows is how many rows of neighboring probe locations each
	// tile additionally reconstructs (paper: 2).
	ExtraRows int
	// StepSize is the local gradient-descent step.
	StepSize float64
	// Iterations is the number of full cycles.
	Iterations int
	// ExchangesPerIteration is how many voxel copy-paste exchanges run
	// per iteration (>= 1).
	ExchangesPerIteration int
	// Timeout bounds blocking communication.
	Timeout time.Duration
	// OnIteration, when non-nil, receives the global cost per iteration
	// (measured over owned locations only, like the GD solver).
	OnIteration func(iter int, cost float64)
	// Ctx, when non-nil, cancels the run at iteration boundaries. The
	// decision is collective (all-reduced) so every rank stops at the
	// same iteration; Reconstruct then returns the PARTIAL stitched
	// Result together with Ctx's error.
	Ctx context.Context
	// SnapshotEvery, together with OnSnapshot, emits periodic object
	// snapshots: after every SnapshotEvery-th iteration the tiles are
	// stitched and OnSnapshot runs on rank 0 with the 0-based iteration
	// index and the stitched slices (freshly allocated — safe to
	// retain). A non-nil error aborts the run on every rank.
	SnapshotEvery int
	OnSnapshot    func(iter int, slices []*grid.Complex2D) error
}

func (o *Options) validate(prob *solver.Problem) error {
	if o.Mesh == nil {
		return fmt.Errorf("halo: nil mesh")
	}
	if o.HaloWidth < 0 {
		return fmt.Errorf("halo: negative halo width %d", o.HaloWidth)
	}
	if o.ExtraRows < 0 {
		return fmt.Errorf("halo: negative extra rows %d", o.ExtraRows)
	}
	if o.StepSize <= 0 {
		return fmt.Errorf("halo: step size must be positive, got %g", o.StepSize)
	}
	if o.Iterations <= 0 {
		return fmt.Errorf("halo: iterations must be positive, got %d", o.Iterations)
	}
	if o.ExchangesPerIteration < 0 {
		return fmt.Errorf("halo: negative exchanges per iteration")
	}
	if err := prob.Validate(); err != nil {
		return err
	}
	if !o.Mesh.Image.Eq(prob.ImageBounds()) {
		return fmt.Errorf("halo: mesh image %v != problem image %v", o.Mesh.Image, prob.ImageBounds())
	}
	return nil
}

// CheckTileConstraint returns ErrTileTooSmall when any interior tile is
// narrower than the exchange halo — the baseline's scalability ceiling.
func CheckTileConstraint(m *tiling.Mesh, haloWidth int) error {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			tile := m.Tile(r, c)
			if tile.W() < haloWidth || tile.H() < haloWidth {
				return fmt.Errorf("%w: tile (%d,%d) is %dx%d, halo %d",
					ErrTileTooSmall, r, c, tile.W(), tile.H(), haloWidth)
			}
		}
	}
	return nil
}

// Result carries the stitched reconstruction and run statistics; the
// type is shared with Gradient Decomposition. PerRankLocations counts
// owned + extra locations — the redundant-computation overhead versus
// Gradient Decomposition — and PerRankMemBytes includes the extra
// measurements and the widened halo.
type Result = collective.Result

const tagPaste = 10

// neighborOffsets enumerates the 8-connected neighborhood pasted to
// (Fig 2(g): tile 4 pastes to 1, 2, 5, 7, 8 — all extended-tile
// neighbors including diagonals).
var neighborOffsets = [8][2]int{
	{-1, -1}, {-1, 0}, {-1, 1},
	{0, -1}, {0, 1},
	{1, -1}, {1, 0}, {1, 1},
}

type hworker struct {
	comm   simmpi.Transport
	mesh   *tiling.Mesh
	prob   *solver.Problem
	opt    *Options
	r, c   int
	ext    grid.Rect // tile + exchange halo
	slices []*grid.Complex2D
	ws     *solver.Workspace // engine + one window of gradient scratch
	packed []complex128      // outgoing payload scratch, grown once to the largest pasted region
	owned  []int             // own locations
	all    []int             // own + extra locations (reconstructed redundantly)
}

// RunRank executes one rank of the Halo Voxel Exchange baseline against
// an arbitrary transport endpoint. Every rank of comm's world must call
// RunRank with identical prob, init and opt; Reconstruct does so over
// an in-process world, the distributed grid over TCP.
func RunRank(comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D, opt Options) (*collective.RankOutcome, error) {
	if err := opt.validate(prob); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("halo: %d initial slices, want %d", len(init), prob.Slices)
	}
	m := opt.Mesh
	if comm.Size() != m.NumTiles() {
		return nil, fmt.Errorf("halo: world size %d != mesh tiles %d", comm.Size(), m.NumTiles())
	}
	haloW := opt.HaloWidth
	if haloW == 0 {
		haloW = m.Halo
	}
	if err := CheckTileConstraint(m, haloW); err != nil {
		return nil, err
	}
	// Deterministic from pattern + mesh: every rank computes the same
	// partition locally.
	owned := m.AssignLocations(prob.Pattern)
	snaps := collective.NewSnapshots(m, opt.SnapshotEvery, opt.OnSnapshot)

	exchanges := opt.ExchangesPerIteration
	if exchanges <= 0 {
		exchanges = 1
	}

	rank := comm.Rank()
	r, c := m.RowCol(rank)
	extra := m.ExtraRowLocations(prob.Pattern, owned, r, c, opt.ExtraRows)
	ext := m.ExtendedWithHalo(r, c, haloW)
	w := &hworker{
		comm: comm, mesh: m, prob: prob, opt: &opt,
		r: r, c: c, ext: ext,
		owned: owned[rank],
		all:   append(append([]int{}, owned[rank]...), extra...),
	}
	w.slices = make([]*grid.Complex2D, prob.Slices)
	for s := 0; s < prob.Slices; s++ {
		w.slices[s] = grid.NewComplex2D(ext)
		w.slices[s].CopyRegion(init[s], ext)
	}
	// One Workspace per rank for the whole run; the per-location
	// loop below never touches the heap after warm-up.
	w.ws = prob.NewWorkspace(ext)

	out := &collective.RankOutcome{
		Locations: len(w.all),
		Owned:     len(w.owned),
	}

	hist := make([]float64, 0, opt.Iterations)
	for iter := 0; iter < opt.Iterations; iter++ {
		var cost float64
		nloc := len(w.all)
		done := 0
		for ex := 0; ex < exchanges; ex++ {
			upto := (ex + 1) * nloc / exchanges
			for ; done < upto; done++ {
				f := w.descend(w.all[done])
				// Cost is reported over owned locations only, so the
				// histories are comparable with Gradient Decomposition.
				if done < len(w.owned) {
					cost += f
				}
			}
			if err := w.exchangeVoxels(haloW); err != nil {
				return nil, fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		global, err := comm.AllreduceSum(cost)
		if err != nil {
			return nil, err
		}
		hist = append(hist, global)
		if rank == 0 && opt.OnIteration != nil {
			opt.OnIteration(iter, global)
		}
		if snaps.Due(iter) {
			if err := snaps.Run(comm, w.slices, iter); err != nil {
				return nil, fmt.Errorf("halo: snapshot at iteration %d: %w", iter, err)
			}
		}
		if stop, err := collective.Cancelled(comm, opt.Ctx); err != nil {
			return nil, err
		} else if stop {
			out.Cancelled = true
			break
		}
	}
	out.Slices = w.slices
	out.CostHistory = hist
	out.MemBytes = prob.MemBytes(w.all, []*solver.Workspace{w.ws}, w.slices)
	out.SentBytes = comm.SentBytes()
	out.SentMessages = comm.SentMessages()
	return out, nil
}

// descend evaluates location li and takes the local gradient step on
// the slices, returning its loss. The gradient goes through the
// workspace's window scratch, so only the window's part of the tile is
// cleared and updated.
func (w *hworker) descend(li int) float64 {
	win := w.prob.Pattern.Locations[li].Window(w.prob.WindowN)
	f, g := w.ws.LossGradWindow(w.slices, win, w.prob.Meas[li])
	for s := range g {
		w.slices[s].AddScaledRegion(g[s], win, -complex(w.opt.StepSize, 0))
	}
	return f
}

// Reconstruct runs the Halo Voxel Exchange baseline over an in-process
// world (one goroutine per rank).
func Reconstruct(prob *solver.Problem, init []*grid.Complex2D, opt Options) (*Result, error) {
	if err := opt.validate(prob); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("halo: %d initial slices, want %d", len(init), prob.Slices)
	}
	m := opt.Mesh
	haloW := opt.HaloWidth
	if haloW == 0 {
		haloW = m.Halo
	}
	if err := CheckTileConstraint(m, haloW); err != nil {
		return nil, err
	}
	return collective.RunWorld(opt.Ctx, m, opt.Timeout, func(comm *simmpi.Comm) (*collective.RankOutcome, error) {
		return RunRank(comm, prob, init, opt)
	})
}

// exchangeVoxels performs the synchronous copy-paste: this tile's
// interior voxels that fall inside each neighbor's halo are sent and
// pasted verbatim into the neighbor's slices (overwriting — the seam
// mechanism), and vice versa.
func (w *hworker) exchangeVoxels(haloW int) error {
	m := w.mesh
	// Eager sends to every neighbour first, then the receives in the same
	// neighbour order: nothing blocks until every message of this rank is
	// out, so the logically synchronous exchange cannot deadlock.
	for _, d := range neighborOffsets {
		nr, nc := w.r+d[0], w.c+d[1]
		if nr < 0 || nr >= m.Rows || nc < 0 || nc >= m.Cols {
			continue
		}
		nbExt := m.ExtendedWithHalo(nr, nc, haloW)
		region := m.Tile(w.r, w.c).Intersect(nbExt)
		if region.Empty() {
			continue
		}
		w.packed = collective.PackRegion(w.packed, w.slices, region)
		w.comm.Send(m.Rank(nr, nc), tagPaste, w.packed)
	}
	// Every neighbour sends exactly one message per exchange under the one
	// tag; receiving by source, FIFO per (src, tag), keeps rounds aligned.
	for _, d := range neighborOffsets {
		nr, nc := w.r+d[0], w.c+d[1]
		if nr < 0 || nr >= m.Rows || nc < 0 || nc >= m.Cols {
			continue
		}
		// Region we receive: neighbor's interior tile ∩ our extended tile.
		region := m.Tile(nr, nc).Intersect(w.ext)
		if region.Empty() {
			continue
		}
		data, err := w.comm.Recv(m.Rank(nr, nc), tagPaste)
		if err != nil {
			return err
		}
		err = collective.UnpackRegion(w.slices, region, data)
		w.comm.Release(data)
		if err != nil {
			return err
		}
	}
	return nil
}
