// Package engine is the one seam between "run algorithm X on this
// problem with these hooks" and the three reconstruction engines
// (solver, gradsync, halo). Every caller — the public Reconstruct API,
// the ptychorecon CLI, the job service's local pool, its grid
// coordinator, the grid workers and the streaming epochs — describes a
// run with one Spec and observes it through one Hooks value, so the
// paper's Alg. 1 has a single entry point wherever its ranks sit:
// Run for a whole in-process run, RunRank for one rank on any
// simmpi.Transport, Assemble to stitch rank outcomes a coordinator
// received. The results are bit-identical across the three because they
// are the same engine calls with the same options.
//
// Hook contracts, stated once for all engines and placements:
//
//   - Iteration indices are 0-based and shifted by Spec.StartIter: a run
//     resumed after k iterations reports k, k+1, ... The snapshot
//     cadence is not shifted — it counts from the run's first iteration.
//   - OnIteration and OnSnapshot fire on rank 0 only (the calling
//     goroutine for the serial engine). OnRankStats fires on EVERY rank
//     of a Gradient Decomposition run, concurrently for in-process runs,
//     and must be safe for concurrent use; the other engines never call
//     it.
//   - The slices handed to OnSnapshot are valid only during the call
//     (the serial engine passes its live buffers): copy or serialize to
//     retain. A non-nil error aborts the run on every rank.
//   - Ctx cancels at iteration boundaries, collectively: every rank
//     stops at the same iteration and the partial object comes back
//     together with Ctx's error.
package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/gradsync"
	"ptychopath/internal/grid"
	"ptychopath/internal/halo"
	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// HVEExtraRows is how many rows of neighbouring probe locations a Halo
// Voxel Exchange tile reconstructs redundantly when Spec.HVEExtraRows
// is 0 (paper: 2; 1 at laptop scale).
const HVEExtraRows = 1

// Spec is the plain-data description of one reconstruction run. The
// JSON keys are the ones the job service's write-ahead log has always
// used for these parameters.
type Spec struct {
	// Algorithm is "serial", "gd" (Gradient Decomposition) or "hve"
	// (Halo Voxel Exchange).
	Algorithm string `json:"algorithm"`
	// Iterations is the number of full cycles through all locations.
	Iterations int `json:"iterations"`
	// StepSize is the gradient-descent step.
	StepSize float64 `json:"step_size"`
	// MeshRows and MeshCols shape the tile mesh of the parallel
	// algorithms; one rank per tile.
	MeshRows int `json:"mesh_rows,omitempty"`
	MeshCols int `json:"mesh_cols,omitempty"`
	// RoundsPerIteration is the communication frequency of the parallel
	// algorithms (Alg. 1's T as a count; 0 means 1).
	RoundsPerIteration int `json:"rounds_per_iteration,omitempty"`
	// IntraWorkers is how many goroutines evaluate the locations of the
	// serial engine or of each gd rank (batch mode only). Gradients are
	// added in location order, so it never changes a result. 0 means
	// GOMAXPROCS for serial, where one rank is the whole run, and 1 for
	// gd, whose ranks are already goroutines.
	IntraWorkers int `json:"intra_workers,omitempty"`
	// SnapshotEvery is the iteration period of Hooks.OnSnapshot; 0
	// disables snapshots.
	SnapshotEvery int `json:"checkpoint_every,omitempty"`
	// StartIter is added to every iteration index the hooks report. It
	// does not change how many iterations run.
	StartIter int `json:"start_iter,omitempty"`

	// The paper-ablation switches.

	// FaithfulAlg1 selects the literal Alg. 1 for gd (local update per
	// location plus the accumulated update) instead of batch mode.
	FaithfulAlg1 bool `json:"faithful_alg1,omitempty"`
	// DisableAPPP inserts barriers between gd's directional passes
	// (the Fig 7b ablation).
	DisableAPPP bool `json:"disable_appp,omitempty"`
	// SerialSequential switches the serial engine to PIE-style
	// per-location updates.
	SerialSequential bool `json:"serial_sequential,omitempty"`
	// ProbeRefineStep, when positive, enables joint object-probe
	// refinement on the serial engine.
	ProbeRefineStep float64 `json:"probe_refine_step,omitempty"`
	// HVEExtraRows overrides the HVEExtraRows default.
	HVEExtraRows int `json:"hve_extra_rows,omitempty"`

	// Timeout bounds every blocking communication of the parallel
	// algorithms (0 = the transport's default).
	Timeout time.Duration `json:"-"`
}

// Hooks observes and controls a run; see the package comment for the
// contracts. Every field may be nil.
type Hooks struct {
	Ctx         context.Context
	OnIteration func(iter int, cost float64)
	OnRankStats func(rank, iter int, computeNS, commNS int64)
	OnSnapshot  func(iter int, slices []*grid.Complex2D) error
}

// offset returns hooks whose callbacks see every iteration index
// shifted by k: how Run and RunRank apply Spec.StartIter.
func (h Hooks) offset(k int) Hooks {
	if k == 0 {
		return h
	}
	out := Hooks{Ctx: h.Ctx}
	if fn := h.OnIteration; fn != nil {
		out.OnIteration = func(iter int, cost float64) { fn(k+iter, cost) }
	}
	if fn := h.OnRankStats; fn != nil {
		out.OnRankStats = func(rank, iter int, computeNS, commNS int64) {
			fn(rank, k+iter, computeNS, commNS)
		}
	}
	if fn := h.OnSnapshot; fn != nil {
		out.OnSnapshot = func(iter int, slices []*grid.Complex2D) error { return fn(k+iter, slices) }
	}
	return out
}

// Result carries a reconstruction and its run statistics. The per-rank
// fields are nil for the serial engine.
type Result struct {
	collective.Result
	// RefinedProbe holds the jointly-refined probe of a serial run with
	// Spec.ProbeRefineStep set (nil otherwise).
	RefinedProbe *grid.Complex2D
}

// NewMesh builds the tile mesh of a parallel run, with the halo sized
// so every tile covers its own probe windows. Coordinator, workers and
// predictors all derive the mesh here, so they cannot disagree.
func NewMesh(prob *solver.Problem, s Spec) (*tiling.Mesh, error) {
	return tiling.NewMesh(prob.ImageBounds(), s.MeshRows, s.MeshCols,
		tiling.HaloForWindow(prob.WindowN))
}

// Validate rejects everything the selected engine would reject before
// its first iteration, so a bad submission fails at the door instead of
// at iteration 0.
func (s Spec) Validate(prob *solver.Problem) error {
	_, err := s.check(prob)
	return err
}

// check is Validate that also hands back the mesh it had to build
// (nil for the serial engine).
func (s Spec) check(prob *solver.Problem) (*tiling.Mesh, error) {
	if s.Algorithm != "serial" && s.Algorithm != "gd" && s.Algorithm != "hve" {
		return nil, fmt.Errorf("engine: unknown algorithm %q (want serial, gd or hve)", s.Algorithm)
	}
	if s.Iterations <= 0 {
		return nil, fmt.Errorf("engine: iterations must be positive, got %d", s.Iterations)
	}
	if s.StepSize <= 0 {
		return nil, fmt.Errorf("engine: step size must be positive, got %g", s.StepSize)
	}
	if s.Algorithm == "serial" {
		if s.ProbeRefineStep < 0 {
			return nil, fmt.Errorf("engine: probe refine step must be non-negative, got %g", s.ProbeRefineStep)
		}
		return nil, nil
	}
	if s.RoundsPerIteration < 0 {
		return nil, fmt.Errorf("engine: rounds per iteration must be >= 0, got %d", s.RoundsPerIteration)
	}
	if s.Algorithm == "gd" && s.IntraWorkers > 1 && s.FaithfulAlg1 {
		return nil, fmt.Errorf("engine: intra-workers require batch mode (faithful Alg 1 updates are order-dependent)")
	}
	mesh, err := NewMesh(prob, s)
	if err != nil {
		return nil, err
	}
	if s.Algorithm == "hve" {
		if s.HVEExtraRows < 0 {
			return nil, fmt.Errorf("engine: negative hve extra rows %d", s.HVEExtraRows)
		}
		if err := halo.CheckTileConstraint(mesh, mesh.Halo); err != nil {
			return nil, err
		}
	}
	return mesh, nil
}

// Run executes the whole run in this process — one goroutine per rank
// for the parallel algorithms. A nil init starts from vacuum; init is
// not mutated. On cancellation via Hooks.Ctx it returns the PARTIAL
// Result together with the context's error.
func Run(prob *solver.Problem, init []*grid.Complex2D, s Spec, h Hooks) (*Result, error) {
	res, _, err := dispatch(nil, prob, init, s, h)
	return res, err
}

// RunRank executes one rank of a parallel run against an arbitrary
// transport endpoint. Every rank of comm's world calls it with the same
// spec and either the shared full problem and init, or just its own
// share of them as Shards describes it. A nil init starts the rank from
// vacuum over its Shards region.
func RunRank(comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D, s Spec, h Hooks) (*collective.RankOutcome, error) {
	_, out, err := dispatch(comm, prob, init, s, h)
	return out, err
}

// Shard is the part of a problem one rank of a parallel run touches.
type Shard struct {
	// Locations indexes prob.Pattern.Locations (and prob.Meas), ascending:
	// every location the rank evaluates.
	Locations []int
	// Region is the only part of the initial object the rank reads.
	Region grid.Rect
}

// Shards splits a parallel run by rank. A problem that keeps prob's
// geometry, probe and propagator but only shards[r].Locations (in that
// order), with an init covering shards[r].Region, is all rank r needs:
// RunRank on it is bit-identical to RunRank on the full problem, because
// the engines assign locations to tiles by position and the subset puts
// the same ones, in the same order, on rank r. This and Spec.region are
// the only place that knows which engine needs what.
func Shards(prob *solver.Problem, s Spec) ([]Shard, error) {
	mesh, err := s.check(prob)
	if err != nil {
		return nil, err
	}
	if mesh == nil {
		return nil, fmt.Errorf("engine: the serial algorithm has no ranks to shard")
	}
	owned := mesh.AssignLocations(prob.Pattern)
	shards := make([]Shard, mesh.NumTiles())
	for rank := range shards {
		locs := owned[rank]
		if s.Algorithm == "hve" {
			// hve also evaluates the neighbours' locations near its border.
			r, c := mesh.RowCol(rank)
			locs = append(slices.Clone(locs), mesh.ExtraRowLocations(prob.Pattern, owned, r, c, s.hveExtraRows())...)
			slices.Sort(locs)
		}
		shards[rank] = Shard{Locations: locs, Region: s.region(mesh, rank)}
	}
	return shards, nil
}

// region is the part of the object one rank of a parallel run reads.
func (s Spec) region(mesh *tiling.Mesh, rank int) grid.Rect {
	r, c := mesh.RowCol(rank)
	if s.Algorithm == "gd" {
		return mesh.Extended(r, c)
	}
	return mesh.ExtendedWithHalo(r, c, mesh.Halo)
}

// hveExtraRows resolves the HVEExtraRows default.
func (s Spec) hveExtraRows() int {
	if s.HVEExtraRows != 0 {
		return s.HVEExtraRows
	}
	return HVEExtraRows
}

// Assemble stitches the outcomes of RunRank on every rank, in rank
// order, into the Result the in-process Run of the same spec returns.
func Assemble(prob *solver.Problem, s Spec, outs []*collective.RankOutcome) (*Result, error) {
	mesh, err := NewMesh(prob, s)
	if err != nil {
		return nil, err
	}
	res, err := collective.Assemble(mesh, outs)
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res}, nil
}

// dispatch is the single place an algorithm name becomes an engine
// call. With a nil comm it runs the whole problem in-process and
// returns the Result; with a comm it runs that one rank and returns its
// outcome.
func dispatch(comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D, s Spec, h Hooks) (*Result, *collective.RankOutcome, error) {
	mesh, err := s.check(prob)
	if err != nil {
		return nil, nil, err
	}
	if init == nil {
		bounds := prob.ImageBounds()
		if comm != nil && mesh != nil && comm.Rank() < mesh.NumTiles() {
			bounds = s.region(mesh, comm.Rank())
		}
		init = phantom.Vacuum(bounds, prob.Slices).Slices
	}
	h = h.offset(s.StartIter)
	var par *collective.Result
	switch s.Algorithm {
	case "serial":
		if comm != nil {
			return nil, nil, fmt.Errorf("engine: the serial algorithm has no ranks to run")
		}
		opt := solver.Options{
			StepSize: s.StepSize, Iterations: s.Iterations,
			ProbeStepSize: s.ProbeRefineStep, Workers: s.IntraWorkers,
			OnIteration: h.OnIteration, Ctx: h.Ctx,
			SnapshotEvery: s.SnapshotEvery, OnSnapshot: h.OnSnapshot,
		}
		if s.SerialSequential {
			opt.Mode = solver.Sequential
		}
		r, err := solver.Reconstruct(prob, init, opt)
		if r == nil {
			return nil, nil, err
		}
		return &Result{
			Result:       collective.Result{Slices: r.Slices, CostHistory: r.CostHistory},
			RefinedProbe: r.RefinedProbe,
		}, nil, err
	case "gd":
		opt := gradsync.Options{
			Mesh: mesh, StepSize: s.StepSize, Iterations: s.Iterations,
			RoundsPerIteration: s.RoundsPerIteration,
			DisableAPPP:        s.DisableAPPP,
			IntraWorkers:       s.IntraWorkers,
			Timeout:            s.Timeout,
			OnIteration:        h.OnIteration, OnRankStats: h.OnRankStats, Ctx: h.Ctx,
			SnapshotEvery: s.SnapshotEvery, OnSnapshot: h.OnSnapshot,
		}
		if s.FaithfulAlg1 {
			opt.Mode = gradsync.ModeFaithful
		}
		if comm != nil {
			out, err := gradsync.RunRank(comm, prob, init, opt)
			return nil, out, err
		}
		par, err = gradsync.Reconstruct(prob, init, opt)
	case "hve":
		opt := halo.Options{
			Mesh: mesh, HaloWidth: mesh.Halo, ExtraRows: s.hveExtraRows(),
			StepSize: s.StepSize, Iterations: s.Iterations,
			ExchangesPerIteration: s.RoundsPerIteration,
			Timeout:               s.Timeout,
			OnIteration:           h.OnIteration, Ctx: h.Ctx,
			SnapshotEvery: s.SnapshotEvery, OnSnapshot: h.OnSnapshot,
		}
		if comm != nil {
			out, err := halo.RunRank(comm, prob, init, opt)
			return nil, out, err
		}
		par, err = halo.Reconstruct(prob, init, opt)
	}
	if par == nil {
		return nil, nil, err
	}
	return &Result{Result: *par}, nil, err
}
