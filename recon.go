package ptycho

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/metrics"
	"ptychopath/internal/phantom"
	"ptychopath/internal/tiling"
)

// Algorithm selects the reconstruction engine.
type Algorithm int

const (
	// Serial runs single-worker gradient descent — the reference.
	Serial Algorithm = iota
	// GradientDecomposition runs the paper's parallel algorithm: tiled
	// gradients, directional accumulation passes, APPP pipelining.
	GradientDecomposition
	// HaloVoxelExchange runs the state-of-the-art baseline the paper
	// compares against.
	HaloVoxelExchange
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Serial:
		return "serial"
	case GradientDecomposition:
		return "gradient-decomposition"
	case HaloVoxelExchange:
		return "halo-voxel-exchange"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ReconstructOptions configures a reconstruction run.
type ReconstructOptions struct {
	Algorithm Algorithm
	// MeshRows and MeshCols shape the tile mesh (parallel algorithms;
	// each tile is one worker, the stand-in for one GPU). Default 2x2.
	MeshRows, MeshCols int
	// StepSize is the gradient-descent step. Default 0.01.
	StepSize float64
	// Iterations is the number of full cycles. Default 20.
	Iterations int
	// RoundsPerIteration is the Gradient Decomposition communication
	// frequency (Alg 1's T, expressed as rounds per iteration; Fig 9).
	// Default 1.
	RoundsPerIteration int
	// FaithfulAlg1 selects the paper's literal Alg 1 (local SGD update
	// per location plus accumulated update). Default false = batch mode,
	// which exactly matches the serial reference.
	FaithfulAlg1 bool
	// DisableAPPP inserts barriers between the directional passes (the
	// Fig 7b ablation); numerics are unchanged.
	DisableAPPP bool
	// SerialSequential switches the serial algorithm to PIE-style
	// per-location updates.
	SerialSequential bool
	// ProbeRefineStep, when positive, enables joint object-probe
	// refinement on the Serial algorithm (aberration correction): each
	// probe update moves the probe by a calibrated fraction of its own
	// magnitude. Typical values 0.02-0.1. The refined probe is returned
	// in Result.RefinedProbe.
	ProbeRefineStep float64
	// HVEExtraRows is the baseline's redundant probe-location rows
	// (paper: 2). Default 1 at laptop scale.
	HVEExtraRows int
	// IntraWorkers is how many goroutines evaluate the locations of the
	// Serial run or of each Gradient Decomposition worker (the stand-in
	// for GPU-internal parallelism). Gradients are added in location
	// order, so it never changes a result. 0 means all of GOMAXPROCS for
	// Serial and 1 for Gradient Decomposition; batch mode only.
	IntraWorkers int
	// OnIteration receives (iteration, cost) as the run progresses.
	OnIteration func(iter int, cost float64)
	// Timeout bounds parallel communication; 0 selects a generous
	// default.
	Timeout time.Duration
	// InitialObject warm-starts the reconstruction from the given
	// slices instead of vacuum — the resume-from-checkpoint path. Must
	// match the dataset's slice count and image size.
	InitialObject []Field
	// Ctx, when non-nil, cancels the run at iteration boundaries. On
	// cancellation Reconstruct returns the PARTIAL Result (slices and
	// cost history so far) together with Ctx's error, so the caller can
	// checkpoint the in-progress object and resume later via
	// InitialObject.
	Ctx context.Context
	// SnapshotEvery, together with OnSnapshot, emits the current object
	// after every SnapshotEvery-th iteration — live previews and
	// periodic checkpoints. The fields are copies owned by the callee.
	// A non-nil error aborts the run.
	SnapshotEvery int
	OnSnapshot    func(iter int, slices []Field) error
}

func (o *ReconstructOptions) setDefaults() {
	if o.MeshRows == 0 {
		o.MeshRows = 2
	}
	if o.MeshCols == 0 {
		o.MeshCols = 2
	}
	if o.StepSize == 0 {
		o.StepSize = 0.01
	}
	if o.Iterations == 0 {
		o.Iterations = 20
	}
	if o.RoundsPerIteration == 0 {
		o.RoundsPerIteration = 1
	}
}

// Result carries a reconstruction and its run statistics.
type Result struct {
	// Slices is the reconstructed object (stitched over tiles for the
	// parallel algorithms).
	Slices []Field
	// CostHistory is F(V) per iteration.
	CostHistory []float64
	// Workers is the number of parallel workers used (1 for Serial).
	Workers int
	// BytesSent / MessagesSent aggregate inter-worker traffic.
	BytesSent    int64
	MessagesSent int64
	// PerRankLocations / PerRankMemBytes hold the per-worker footprint
	// statistics of the parallel algorithms (nil for Serial).
	PerRankLocations []int
	PerRankMemBytes  []int64
	// RefinedProbe holds the jointly-refined probe when
	// ProbeRefineStep was set on a Serial run (zero Field otherwise).
	RefinedProbe Field

	meshRows, meshCols int
	imageW, imageH     int
}

// Reconstruct runs the selected algorithm, starting from
// Options.InitialObject when set (resume / warm start) and from a
// vacuum object otherwise. On cancellation via Options.Ctx it returns
// the partial Result together with the context's error.
func (d *Dataset) Reconstruct(opt ReconstructOptions) (*Result, error) {
	opt.setDefaults()
	bounds := d.prob.ImageBounds()
	init := phantom.Vacuum(bounds, d.prob.Slices)
	if opt.InitialObject != nil {
		if len(opt.InitialObject) != d.prob.Slices {
			return nil, fmt.Errorf("ptycho: initial object has %d slices, dataset has %d",
				len(opt.InitialObject), d.prob.Slices)
		}
		for i, f := range opt.InitialObject {
			if f.W != bounds.W() || f.H != bounds.H() {
				return nil, fmt.Errorf("ptycho: initial object slice %d is %dx%d, dataset image is %dx%d",
					i, f.W, f.H, bounds.W(), bounds.H())
			}
			init.Slices[i] = f.toGrid()
		}
	}
	hooks := engine.Hooks{Ctx: opt.Ctx, OnIteration: opt.OnIteration}
	if opt.OnSnapshot != nil {
		hooks.OnSnapshot = func(iter int, slices []*grid.Complex2D) error {
			return opt.OnSnapshot(iter, toFields(slices))
		}
	}
	spec := engine.Spec{
		Iterations: opt.Iterations, StepSize: opt.StepSize,
		MeshRows: opt.MeshRows, MeshCols: opt.MeshCols,
		RoundsPerIteration: opt.RoundsPerIteration,
		IntraWorkers:       opt.IntraWorkers,
		SnapshotEvery:      opt.SnapshotEvery,
		FaithfulAlg1:       opt.FaithfulAlg1,
		DisableAPPP:        opt.DisableAPPP,
		SerialSequential:   opt.SerialSequential,
		ProbeRefineStep:    opt.ProbeRefineStep,
		HVEExtraRows:       opt.HVEExtraRows,
		Timeout:            opt.Timeout,
	}
	switch opt.Algorithm {
	case Serial:
		spec.Algorithm = "serial"
	case GradientDecomposition:
		spec.Algorithm = "gd"
	case HaloVoxelExchange:
		spec.Algorithm = "hve"
	default:
		return nil, fmt.Errorf("ptycho: unknown algorithm %v", opt.Algorithm)
	}
	r, err := engine.Run(d.prob, init.Slices, spec, hooks)
	if r == nil {
		return nil, err
	}
	res := &Result{
		Slices:           toFields(r.Slices),
		CostHistory:      r.CostHistory,
		Workers:          max(1, len(r.PerRankLocations)),
		BytesSent:        r.BytesSent,
		MessagesSent:     r.MessagesSent,
		PerRankLocations: r.PerRankLocations,
		PerRankMemBytes:  r.PerRankMemBytes,
		imageW:           bounds.W(), imageH: bounds.H(),
	}
	if opt.Algorithm != Serial {
		res.meshRows, res.meshCols = opt.MeshRows, opt.MeshCols
	}
	if r.RefinedProbe != nil {
		res.RefinedProbe = fieldFrom(r.RefinedProbe)
	}
	return res, err
}

func toFields(slices []*grid.Complex2D) []Field {
	out := make([]Field, len(slices))
	for i, s := range slices {
		out[i] = fieldFrom(s)
	}
	return out
}

// SeamScore quantifies tile-border artifacts in slice s of the result
// (Fig 8): ~1 means seam-free, substantially higher means visible
// copy-paste seams. Requires a parallel reconstruction (the mesh shape
// is remembered from the run).
func (r *Result) SeamScore(s int) (float64, error) {
	if r.meshRows == 0 || r.meshCols == 0 {
		return 0, fmt.Errorf("ptycho: seam score requires a parallel reconstruction")
	}
	img := r.Slices[s].toGrid()
	mesh, err := tiling.NewMesh(img.Bounds, r.meshRows, r.meshCols, 0)
	if err != nil {
		return 0, err
	}
	return metrics.SeamScore(img, mesh), nil
}

// RelativeErrorTo returns ||rec - truth|| / ||truth|| for slice s after
// global-phase alignment.
func (r *Result) RelativeErrorTo(d *Dataset, s int) float64 {
	return metrics.RelativeError(r.Slices[s].toGrid(), d.truth.Slices[s])
}

// ResidualSeamScore evaluates the seam metric on the residual
// (reconstruction minus ground truth, after global-phase alignment) for
// slice s over a meshRows x meshCols tile grid. Reconstruction error
// that concentrates along tile borders — the copy-paste artifact of the
// paper's Fig 8(a) — scores above 1; border-free error scores ~1 or
// below. Using the residual rather than the raw image cancels the
// object's own contrast (atomic lattices dominate raw gradients).
func (d *Dataset) ResidualSeamScore(r *Result, s, meshRows, meshCols int) float64 {
	rec := r.Slices[s].toGrid()
	aligned := metrics.AlignGlobalPhase(rec, d.truth.Slices[s])
	aligned.AddScaled(d.truth.Slices[s], -1)
	mesh, err := tiling.NewMesh(aligned.Bounds, meshRows, meshCols, 0)
	if err != nil {
		return 0
	}
	return metrics.SeamScore(aligned, mesh)
}

// ResidualBorderRatio measures how strongly the reconstruction error of
// slice s concentrates in a band of half-width `band` pixels around the
// interior boundaries of a meshRows x meshCols tile grid: mean |error|
// inside the band over mean |error| outside. Border-localized artifacts
// (the paper's Fig 8(a) copy-paste seams) push the ratio up; an
// algorithm free of border artifacts matches the serial run's ratio.
func (d *Dataset) ResidualBorderRatio(r *Result, s, meshRows, meshCols, band int) float64 {
	rec := r.Slices[s].toGrid()
	aligned := metrics.AlignGlobalPhase(rec, d.truth.Slices[s])
	aligned.AddScaled(d.truth.Slices[s], -1)
	mesh, err := tiling.NewMesh(aligned.Bounds, meshRows, meshCols, 0)
	if err != nil {
		return 0
	}
	return metrics.BorderErrorRatio(aligned, mesh, band)
}
