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
	slices := make([]*grid.Complex2D, len(init))
	for i, s := range init {
		slices[i] = s.Clone()
	}
	// One Workspace for the whole run: the engine's wavefield buffers,
	// FFT scratch and the gradient arrays are allocated here once and
	// reused by every probe location of every iteration.
	ws := prob.NewWorkspace(slices[0].Bounds)
	eng := ws.Eng
	grads := ws.Grads()
	step := complex(opt.StepSize, 0)
	hist := make([]float64, 0, opt.Iterations)

	refineProbe := opt.ProbeStepSize > 0
	var probe, probeGrad *grid.Complex2D
	var probeStep complex128
	if refineProbe {
		probe = eng.Probe().Clone()
		probeGrad = grid.NewComplex2D(probe.Bounds)
		probeStep = complex(opt.ProbeStepSize, 0)
	}
	lossGrad := func(i int, win grid.Rect) float64 {
		if refineProbe {
			return eng.LossGradProbe(slices, win, prob.Meas[i], grads, probeGrad)
		}
		return eng.LossGrad(slices, win, prob.Meas[i], grads)
	}
	// The probe step is auto-scaled from the largest gradient met so
	// far: that update moves the probe peak by ProbeStepSize x its own
	// magnitude, and later updates use the same scale so the step
	// decays with the gradient (plain GD semantics, calibrated units).
	// Without this the raw probe gradient (which carries an N^2
	// detector-plane factor) needs ~1e-6 steps. The first gradient
	// alone will not do: from a vacuum start it holds bright-field
	// residuals only (the dark field is dark, see multislice) and the
	// second is many times larger.
	probeScale := complex(0, 0)
	applyProbe := func() {
		if !refineProbe {
			return
		}
		if gMax := probeGrad.MaxAbs(); gMax > 0 {
			if s := probeStep * complex(probe.MaxAbs()/gMax, 0); probeScale == 0 || real(s) < real(probeScale) {
				probeScale = s
			}
		}
		probe.AddScaled(probeGrad, -probeScale)
		probeGrad.Zero()
		eng.SetProbe(probe)
	}

	for iter := 0; iter < opt.Iterations; iter++ {
		var cost float64
		switch opt.Mode {
		case Batch:
			for _, g := range grads {
				g.Zero()
			}
			for i, l := range prob.Pattern.Locations {
				cost += lossGrad(i, l.Window(prob.WindowN))
			}
			for s := range slices {
				slices[s].AddScaled(grads[s], -step)
			}
			applyProbe()
		case Sequential:
			for i, l := range prob.Pattern.Locations {
				for _, g := range grads {
					g.Zero()
				}
				cost += lossGrad(i, l.Window(prob.WindowN))
				for s := range slices {
					slices[s].AddScaled(grads[s], -step)
				}
				applyProbe()
			}
		default:
			return nil, fmt.Errorf("solver: unknown update mode %d", opt.Mode)
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
			res := &Result{Slices: slices, CostHistory: hist}
			if refineProbe {
				res.RefinedProbe = probe
			}
			return res, opt.Ctx.Err()
		}
	}
	res := &Result{Slices: slices, CostHistory: hist}
	if refineProbe {
		res.RefinedProbe = probe
	}
	return res, nil
}
