package stream

import (
	"bytes"
	"testing"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

func appendFrames(t *testing.T, prob *solver.Problem, frames []dataio.Frame) {
	t.Helper()
	locs := make([]scan.Location, len(frames))
	meas := make([]*grid.Float2D, len(frames))
	for i, f := range frames {
		locs[i], meas[i] = f.Loc, f.Meas
	}
	if err := prob.AppendLocations(locs, meas); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingKernelAllocationFree guards the hot path under the
// streaming engine: folding frames grows the active set, but the
// per-location gradient kernel — and in fact the whole streaming
// iteration, on two goroutines — must stay at zero heap allocations,
// because the engine reuses one solver.Stepper for the life of the run
// exactly like the batch solver.
func TestStreamingKernelAllocationFree(t *testing.T) {
	prob := acquisition(t, 2)
	frames := dataio.FramesFromProblem(prob)
	hdr := dataio.HeaderFromProblem(prob)

	grown := hdr.NewProblem()
	init := phantom.Vacuum(grown.ImageBounds(), grown.Slices).Slices
	eng := newSerialEngine(grown, init, engine.Spec{StepSize: 0.01, IntraWorkers: 2})
	defer eng.st.Close()

	// First fold, then warm the workspace.
	appendFrames(t, grown, frames[:8])
	eng.iterate()
	if got := testing.AllocsPerRun(20, func() { eng.iterate() }); got != 0 {
		t.Errorf("streaming iteration allocates %v after first fold, want 0", got)
	}

	// A mid-run fold must not reintroduce allocations.
	appendFrames(t, grown, frames[8:])
	eng.iterate()
	if got := testing.AllocsPerRun(20, func() { eng.iterate() }); got != 0 {
		t.Errorf("streaming iteration allocates %v after second fold, want 0", got)
	}

	// The engine's state is still a valid object.
	var buf bytes.Buffer
	if err := dataio.WriteObject(&buf, eng.object()); err != nil {
		t.Fatalf("streamed object does not serialize: %v", err)
	}
}
