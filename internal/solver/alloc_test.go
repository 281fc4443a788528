package solver

import (
	"testing"

	"ptychopath/internal/phantom"
)

// TestSerialGradientAllocationFree guards the Serial engine's hot path:
// once the run's single Workspace is warm, evaluating a probe
// location's loss+gradient — the body of every serial iteration —
// performs zero heap allocations.
func TestSerialGradientAllocationFree(t *testing.T) {
	prob, _ := smallProblem(t, 2, 0)
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	ws := prob.NewWorkspace(prob.ImageBounds())
	loc := prob.Pattern.Locations[0]
	win := loc.Window(prob.WindowN)
	ws.LossGrad(init.Slices, win, prob.Meas[0])
	if got := testing.AllocsPerRun(20, func() {
		ws.ZeroGrads()
		ws.LossGrad(init.Slices, win, prob.Meas[0])
	}); got != 0 {
		t.Errorf("serial per-location kernel allocates %v, want 0", got)
	}
}

// TestWorkspaceGradientMatchesEngine checks the Workspace wrapper is a
// pure re-plumbing of Engine.LossGrad — identical loss and gradients.
func TestWorkspaceGradientMatchesEngine(t *testing.T) {
	prob, obj := smallProblem(t, 2, 0)
	bounds := prob.ImageBounds()
	wantGrads, wantF := TotalGradient(prob, obj.Slices, bounds)

	ws := prob.NewWorkspace(bounds)
	var gotF float64
	for i, l := range prob.Pattern.Locations {
		gotF += ws.LossGrad(obj.Slices, l.Window(prob.WindowN), prob.Meas[i])
	}
	if gotF != wantF {
		t.Errorf("workspace loss %g != reference %g", gotF, wantF)
	}
	for s := range wantGrads {
		if md := wantGrads[s].MaxDiff(ws.Grads()[s]); md != 0 {
			t.Errorf("slice %d: workspace gradient differs from reference by %g", s, md)
		}
	}
}

// TestBatchIterationAllocationFree: a steady-state batch iteration on
// two goroutines — the pool's sweep, the ordered accumulation and the
// update, with and without probe refinement — allocates nothing.
func TestBatchIterationAllocationFree(t *testing.T) {
	prob, _ := smallProblem(t, 2, 0)
	for _, probeStep := range []float64{0, 0.05} {
		init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
		st := prob.NewStepper(init.Slices, Options{StepSize: 0.01, ProbeStepSize: probeStep, Workers: 2})
		st.Batch()
		if got := testing.AllocsPerRun(10, func() { st.Batch() }); got != 0 {
			t.Errorf("batch iteration (probe step %g) on 2 workers allocates %v, want 0", probeStep, got)
		}
		st.Close()
	}
}
