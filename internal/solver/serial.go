package solver

import (
	"context"
	"fmt"

	"ptychopath/internal/grid"
)

// UpdateMode selects between batch gradient descent (all gradients
// accumulated, one update per iteration) and sequential location-wise
// updates (PIE-style SGD, the mode Alg. 1 of the paper uses locally).
type UpdateMode int

const (
	// Batch accumulates the full gradient before updating — the
	// mathematical reference the parallel decomposition must match
	// exactly.
	Batch UpdateMode = iota
	// Sequential updates the object after every probe location in
	// acquisition order.
	Sequential
)

// Options configures the serial solvers.
type Options struct {
	StepSize   float64
	Iterations int
	Mode       UpdateMode
	// ProbeStepSize, when positive, enables joint object-probe
	// refinement: the probe wavefunction is descended alongside the
	// object (aberration/defect correction, paper Sec. II-B). The probe
	// update is normalized — each update moves the probe by at most
	// ProbeStepSize of its own peak magnitude along the gradient
	// direction — because the raw probe gradient carries an N^2 factor
	// from the detector-plane adjoint and would otherwise need
	// unintuitive ~1e-6 steps. Typical values: 0.02-0.1. The refined
	// probe is returned in Result.RefinedProbe.
	ProbeStepSize float64
	// StopBelowCost, when positive, ends the run early once the
	// iteration cost falls below it.
	StopBelowCost float64
	// Workers is how many goroutines evaluate a Batch iteration's
	// locations (0 = GOMAXPROCS). Gradients are added in location
	// order, so every count gives the same result bit for bit.
	// Sequential mode runs on the calling goroutine.
	Workers int
	// OnIteration, when non-nil, receives the iteration index and the
	// cost F(V) measured during that iteration's gradient evaluations.
	OnIteration func(iter int, cost float64)
	// Ctx, when non-nil, cancels the run at iteration boundaries: once
	// Ctx is done, Reconstruct stops after the current iteration and
	// returns the PARTIAL Result (slices and cost history so far)
	// together with Ctx's error, so callers can checkpoint the
	// in-progress object.
	Ctx context.Context
	// SnapshotEvery, together with OnSnapshot, emits periodic object
	// snapshots: after every SnapshotEvery-th iteration OnSnapshot
	// receives the 0-based iteration index and the current slices. The
	// slices are the solver's live buffers, valid only for the duration
	// of the call — copy (or serialize) to retain. A non-nil error
	// aborts the run.
	SnapshotEvery int
	OnSnapshot    func(iter int, slices []*grid.Complex2D) error
}

// Result carries the reconstruction and its convergence trace.
type Result struct {
	Slices      []*grid.Complex2D
	CostHistory []float64
	// RefinedProbe holds the jointly-refined probe when
	// Options.ProbeStepSize was set (nil otherwise).
	RefinedProbe *grid.Complex2D
}

// Reconstruct runs serial maximum-likelihood gradient descent from the
// given initial slices (copied, not mutated). It is the single-GPU
// reference implementation of the paper's Eqn. (1).
func Reconstruct(prob *Problem, init []*grid.Complex2D, opt Options) (*Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("solver: %d initial slices, want %d", len(init), prob.Slices)
	}
	if opt.StepSize <= 0 {
		return nil, fmt.Errorf("solver: step size must be positive, got %g", opt.StepSize)
	}
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("solver: iterations must be positive, got %d", opt.Iterations)
	}
	if opt.ProbeStepSize < 0 {
		return nil, fmt.Errorf("solver: probe step size must be non-negative, got %g", opt.ProbeStepSize)
	}
	if opt.Mode != Batch && opt.Mode != Sequential {
		return nil, fmt.Errorf("solver: unknown update mode %d", opt.Mode)
	}
	slices := make([]*grid.Complex2D, len(init))
	for i, s := range init {
		slices[i] = s.Clone()
	}
	st := prob.NewStepper(slices, opt)
	defer st.Close()
	hist := make([]float64, 0, opt.Iterations)
	result := func() *Result {
		return &Result{Slices: slices, CostHistory: hist, RefinedProbe: st.probe}
	}
	for iter := 0; iter < opt.Iterations; iter++ {
		var cost float64
		if opt.Mode == Batch {
			cost = st.Batch()
		} else {
			cost = st.sequential()
		}
		hist = append(hist, cost)
		if opt.OnIteration != nil {
			opt.OnIteration(iter, cost)
		}
		if opt.SnapshotEvery > 0 && opt.OnSnapshot != nil && (iter+1)%opt.SnapshotEvery == 0 {
			if err := opt.OnSnapshot(iter, slices); err != nil {
				return nil, fmt.Errorf("solver: snapshot at iteration %d: %w", iter, err)
			}
		}
		if opt.StopBelowCost > 0 && cost < opt.StopBelowCost {
			break
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return result(), opt.Ctx.Err()
		}
	}
	return result(), nil
}

// Stepper is one serial reconstruction in progress: the object it
// descends in place, one Workspace for the whole run (engine, FFT
// scratch and gradient arrays, allocated once), the location pool of
// batch iterations and, under probe refinement, the probe.
type Stepper struct {
	prob   *Problem
	slices []*grid.Complex2D
	ws     *Workspace
	pool   *Pool
	step   complex128

	probe, probeGrad      *grid.Complex2D // nil without probe refinement
	probeStep, probeScale complex128
}

// NewStepper prepares descending slices (in place) with opt's step
// sizes; a batch iteration runs on opt.Workers goroutines, a sequential
// one on the caller's. Close it when the run ends.
func (p *Problem) NewStepper(slices []*grid.Complex2D, opt Options) *Stepper {
	ws := p.NewWorkspace(slices[0].Bounds)
	st := &Stepper{prob: p, slices: slices, ws: ws, step: complex(opt.StepSize, 0)}
	if opt.ProbeStepSize > 0 {
		st.probe = ws.Eng.Probe().Clone()
		st.probeGrad = grid.NewComplex2D(st.probe.Bounds)
		st.probeStep = complex(opt.ProbeStepSize, 0)
	}
	workers := opt.Workers
	if opt.Mode == Sequential {
		workers = 1
	}
	st.pool = p.NewPool(ws.Eng, workers, nil, slices, ws.Grads(), st.probeGrad)
	return st
}

// Batch runs one batch iteration — every location's gradient, added in
// location order, then one update — and returns its cost.
func (st *Stepper) Batch() float64 {
	st.ws.ZeroGrads()
	cost := st.pool.Sweep(0, len(st.prob.Meas), 0)
	st.descend()
	return cost
}

// sequential runs one iteration of per-location updates in acquisition
// order and returns its cost.
func (st *Stepper) sequential() float64 {
	var cost float64
	for i := range st.prob.Meas {
		st.ws.ZeroGrads()
		cost = st.pool.Sweep(i, i+1, cost)
		st.descend()
	}
	return cost
}

// descend applies the accumulated gradients to the object and, under
// probe refinement, to the probe.
//
// The probe step is auto-scaled from the largest gradient met so far:
// that update moves the probe peak by ProbeStepSize x its own
// magnitude, and later updates use the same scale so the step decays
// with the gradient (plain GD semantics, calibrated units). Without
// this the raw probe gradient (which carries an N^2 detector-plane
// factor) needs ~1e-6 steps. The first gradient alone will not do:
// from a vacuum start it holds bright-field residuals only (the dark
// field is dark, see multislice) and the second is many times larger.
func (st *Stepper) descend() {
	grads := st.ws.Grads()
	for s := range st.slices {
		st.slices[s].AddScaled(grads[s], -st.step)
	}
	if st.probe == nil {
		return
	}
	if gMax := st.probeGrad.MaxAbs(); gMax > 0 {
		if s := st.probeStep * complex(st.probe.MaxAbs()/gMax, 0); st.probeScale == 0 || real(s) < real(st.probeScale) {
			st.probeScale = s
		}
	}
	st.probe.AddScaled(st.probeGrad, -st.probeScale)
	st.probeGrad.Zero()
	st.pool.SetProbe(st.probe)
}

// Close ends the batch pool's goroutines.
func (st *Stepper) Close() { st.pool.Close() }
