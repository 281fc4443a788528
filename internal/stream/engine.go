package stream

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// Options configures a streaming reconstruction.
type Options struct {
	// Spec describes the engine run, with streaming readings of three
	// fields. Algorithm is "serial" (default) or "gd" (Gradient
	// Decomposition with per-epoch tile re-partitioning); Halo Voxel
	// Exchange is not supported: its redundant boundary locations are
	// assigned once, which contradicts a growing location set.
	// Iterations is the TAIL: how many iterations run over the complete
	// set after the stream closes — the "finish its epochs" phase
	// (default 20). SnapshotEvery counts iterations of the whole
	// streaming run; the cadence is exact for the serial engine, while
	// the gd engine snapshots at epoch boundaries, so its cadence is
	// exact when FoldEvery is 1. Other defaults: step 0.01, mesh 2x2.
	// StartIter is unused (a stream cannot warm-start mid-count).
	Spec engine.Spec
	// Hooks observes the run under the engine's hook contracts: Ctx
	// also wakes the engine when it is blocked waiting for the first
	// frames, OnIteration's cost is over the active set, and
	// OnRankStats is not called.
	Hooks engine.Hooks
	// FoldEvery is the number of iterations between ingest polls while
	// the stream is open (and the epoch length of the gd engine).
	// Default 1: new frames fold in at every iteration boundary.
	FoldEvery int
	// MaxIterations, when positive, bounds iterations run BEFORE the
	// stream closes; exceeding it returns ErrIterationBudget with the
	// partial (checkpointable) result. Guards against a stalled feed
	// spinning the solver forever. 0 means unlimited.
	MaxIterations int
	// InitialObject warm-starts the run (copied, not mutated); nil
	// means vacuum.
	InitialObject []*grid.Complex2D
	// OnFold fires after each fold that grew the active set: the
	// iteration count completed so far, the number of frames folded,
	// and the new active-set size.
	OnFold func(iter, added, active int)
	// OnFoldTimed additionally reports when the fold started and how
	// long it took (the AppendLocations work); nil skips the timing.
	OnFoldTimed func(iter, added, active int, start time.Time, d time.Duration)
}

func (o *Options) setDefaults() {
	s := &o.Spec
	if s.Algorithm == "" {
		s.Algorithm = "serial"
	}
	if s.StepSize == 0 {
		s.StepSize = 0.01
	}
	if s.Iterations == 0 {
		s.Iterations = 20
	}
	if o.FoldEvery <= 0 {
		o.FoldEvery = 1
	}
	if s.MeshRows == 0 {
		s.MeshRows = 2
	}
	if s.MeshCols == 0 {
		s.MeshCols = 2
	}
}

func (o *Options) validate(hdr *dataio.StreamHeader) error {
	if err := hdr.Validate(); err != nil {
		return err
	}
	if o.Spec.Algorithm == "hve" {
		return fmt.Errorf("stream: algorithm hve is not supported (want serial or gd)")
	}
	if err := o.Spec.Validate(hdr.NewProblem()); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("stream: max iterations must be non-negative, got %d", o.MaxIterations)
	}
	if o.InitialObject != nil {
		if len(o.InitialObject) != hdr.Slices {
			return fmt.Errorf("stream: initial object has %d slices, stream has %d",
				len(o.InitialObject), hdr.Slices)
		}
		bounds := grid.RectWH(0, 0, hdr.ImageW, hdr.ImageH)
		if !o.InitialObject[0].Bounds.Eq(bounds) {
			return fmt.Errorf("stream: initial object bounds %v != image %v",
				o.InitialObject[0].Bounds, bounds)
		}
	}
	return nil
}

// Result carries the streaming reconstruction and its run statistics.
type Result struct {
	// Slices is the reconstructed object over the full image.
	Slices []*grid.Complex2D
	// CostHistory holds the active-set cost per iteration. Entries
	// from before the final fold are costs over a PARTIAL set — not
	// comparable with later entries in absolute terms.
	CostHistory []float64
	// Iterations is the number of iterations completed.
	Iterations int
	// Frames is the number of frames folded into the reconstruction.
	Frames int
	// Folds is the number of ingest folds that grew the active set —
	// the epoch count of the run.
	Folds int
}

// recorder is the per-run progress state shared by both engines.
type recorder struct {
	opt   *Options
	hist  []float64
	done  int // completed iterations
	folds int
}

// record publishes one completed iteration (serial engine: the
// recorder numbers iterations itself).
func (r *recorder) record(cost float64) {
	r.recordIndexed(r.done, cost)
}

// recordIndexed publishes one completed iteration whose 0-based global
// index the engine reports directly — the gd engine's epochs run with
// Spec.StartIter set, so the index arriving here is already continuous
// across epochs and becomes the recorder's progress counter.
func (r *recorder) recordIndexed(iter int, cost float64) {
	r.hist = append(r.hist, cost)
	r.done = iter + 1
	if r.opt.Hooks.OnIteration != nil {
		r.opt.Hooks.OnIteration(iter, cost)
	}
}

// snapshotDue reports whether the global cadence owes a snapshot after
// r.done completed iterations.
func (r *recorder) snapshotDue() bool {
	return r.opt.Spec.SnapshotEvery > 0 && r.opt.Hooks.OnSnapshot != nil &&
		r.done > 0 && r.done%r.opt.Spec.SnapshotEvery == 0
}

// serialEngine runs the batch step of internal/solver — the same
// solver.Stepper, so the same operation order — over the growing active
// set, which is what makes a streaming run bit-identical to a batch run
// warm-started from any post-fold checkpoint. One Stepper for the whole
// run keeps the iteration allocation-free no matter how many folds have
// happened (guarded by TestStreamingKernelAllocationFree).
type serialEngine struct {
	slices []*grid.Complex2D
	st     *solver.Stepper
}

func newSerialEngine(prob *solver.Problem, init []*grid.Complex2D, spec engine.Spec) *serialEngine {
	return &serialEngine{
		slices: init,
		st:     prob.NewStepper(init, solver.Options{StepSize: spec.StepSize, Workers: spec.IntraWorkers}),
	}
}

func (e *serialEngine) iterate() float64 { return e.st.Batch() }

// run executes up to n iterations, honoring cancellation and the
// snapshot cadence at every iteration boundary.
func (e *serialEngine) run(n int, rec *recorder) error {
	h := rec.opt.Hooks
	for k := 0; k < n; k++ {
		cost := e.iterate()
		rec.record(cost)
		if rec.snapshotDue() {
			if err := h.OnSnapshot(rec.done-1, e.slices); err != nil {
				return fmt.Errorf("stream: snapshot at iteration %d: %w", rec.done-1, err)
			}
		}
		if h.Ctx != nil && h.Ctx.Err() != nil {
			return context.Cause(h.Ctx)
		}
	}
	return nil
}

func (e *serialEngine) object() []*grid.Complex2D { return e.slices }

// gdEngine runs Gradient Decomposition in epochs: each call
// re-partitions the grown location set across the tile mesh
// (Mesh.AssignLocations inside the engine run) and advances the object
// by one epoch of iterations, warm-starting from the previous epoch's
// stitched result. Spec.StartIter keeps reported iteration indices
// continuous across epochs.
type gdEngine struct {
	prob *solver.Problem
	cur  []*grid.Complex2D
}

func (e *gdEngine) run(n int, rec *recorder) error {
	opt := rec.opt
	// One epoch: n iterations from where the count stands. Snapshots are
	// taken below, on the global cadence, not by the epoch's own run.
	spec := opt.Spec
	spec.Iterations, spec.StartIter, spec.SnapshotEvery = n, rec.done, 0
	r, err := engine.Run(e.prob, e.cur, spec,
		engine.Hooks{Ctx: opt.Hooks.Ctx, OnIteration: rec.recordIndexed})
	if r != nil {
		e.cur = r.Slices
	}
	if err != nil {
		return err
	}
	// Epoch-boundary snapshot: the stitched full-image object is only
	// available between epochs.
	if rec.snapshotDue() {
		if serr := opt.Hooks.OnSnapshot(rec.done-1, e.cur); serr != nil {
			return fmt.Errorf("stream: snapshot at iteration %d: %w", rec.done-1, serr)
		}
	}
	return nil
}

func (e *gdEngine) object() []*grid.Complex2D { return e.cur }

// stepper is the per-algorithm stepping interface of the streaming loop.
type stepper interface {
	// run advances the reconstruction by up to n iterations over the
	// CURRENT active set, reporting progress through rec. A non-nil
	// error with partial progress (cancellation) leaves object() valid.
	run(n int, rec *recorder) error
	// object returns the current full-image slices (live buffers).
	object() []*grid.Complex2D
}

// Run reconstructs an acquisition streamed through in, starting from
// geometry metadata only. Frames are folded into the active set at
// iteration boundaries; after the stream closes, Spec.Iterations more
// iterations run over the complete set. On cancellation (or
// ErrIterationBudget) the partial result is returned alongside the
// error so the caller can checkpoint it.
func Run(hdr *dataio.StreamHeader, in *Ingest, opt Options) (*Result, error) {
	opt.setDefaults()
	if err := opt.validate(hdr); err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("stream: nil ingest")
	}
	prob := hdr.NewProblem()
	init := opt.InitialObject
	if init == nil {
		init = phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	} else {
		cp := make([]*grid.Complex2D, len(init))
		for i, s := range init {
			cp[i] = s.Clone()
		}
		init = cp
	}
	var eng stepper = &gdEngine{prob: prob, cur: init}
	if opt.Spec.Algorithm == "serial" {
		se := newSerialEngine(prob, init, opt.Spec)
		defer se.st.Close()
		eng = se
	}
	var err error

	rec := &recorder{opt: &opt}
	result := func() *Result {
		return &Result{
			Slices:      eng.object(),
			CostHistory: rec.hist,
			Iterations:  rec.done,
			Frames:      prob.Pattern.N(),
			Folds:       rec.folds,
		}
	}
	fold := func(frames []dataio.Frame) error {
		if len(frames) == 0 {
			return nil
		}
		start := time.Now()
		locs := make([]scan.Location, len(frames))
		meas := make([]*grid.Float2D, len(frames))
		for i, f := range frames {
			locs[i], meas[i] = f.Loc, f.Meas
		}
		if err := prob.AppendLocations(locs, meas); err != nil {
			return err
		}
		rec.folds++
		if opt.OnFold != nil {
			opt.OnFold(rec.done, len(frames), prob.Pattern.N())
		}
		if opt.OnFoldTimed != nil {
			opt.OnFoldTimed(rec.done, len(frames), prob.Pattern.N(), start, time.Since(start))
		}
		return nil
	}

	// Streaming phase: fold arrivals at iteration boundaries, iterate
	// over the active set between folds.
	eofFolded := false
	for !eofFolded {
		var frames []dataio.Frame
		var eof bool
		if prob.Pattern.N() == 0 {
			// Nothing to iterate on yet: block until the acquisition
			// produces frames, closes, or the run is cancelled.
			if frames, eof, err = in.wait(opt.Hooks.Ctx); err != nil {
				return result(), err
			}
		} else {
			frames, eof = in.poll()
		}
		if err := fold(frames); err != nil {
			return result(), err
		}
		eofFolded = eof
		if prob.Pattern.N() == 0 {
			if eofFolded {
				return nil, ErrNoFrames
			}
			continue
		}
		if eofFolded {
			break // tail phase iterates the complete set
		}
		if opt.MaxIterations > 0 && rec.done >= opt.MaxIterations {
			return result(), fmt.Errorf("%w: %d iterations", ErrIterationBudget, rec.done)
		}
		if err := eng.run(opt.FoldEvery, rec); err != nil {
			return result(), err
		}
	}

	// Tail phase: the active set is complete; every iteration from
	// here is an exact batch step, so checkpoints taken now warm-start
	// bit-identical batch runs.
	chunk := opt.FoldEvery
	for left := opt.Spec.Iterations; left > 0; left -= chunk {
		if err := eng.run(min(chunk, left), rec); err != nil {
			return result(), err
		}
	}
	return result(), nil
}
