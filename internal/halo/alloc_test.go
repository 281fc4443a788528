package halo

import (
	"runtime"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/tiling"
)

// TestHaloGradientAllocationFree guards the Halo Voxel Exchange hot
// path: hworker.descend, the per-location body of the reconstruction
// loop — evaluate the location into the window scratch, descend the
// window's part of the tile — performs no heap allocations once the
// rank's arena is warm.
func TestHaloGradientAllocationFree(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 2)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)

	// Mirror the worker setup of RunRank: slices on the widened
	// extended tile plus one Workspace for the whole run.
	ext := m.ExtendedWithHalo(0, 0, m.Halo)
	w := &hworker{prob: prob, opt: &Options{StepSize: 0.01}, ws: prob.NewWorkspace(ext)}
	w.slices = make([]*grid.Complex2D, prob.Slices)
	for s := range w.slices {
		w.slices[s] = grid.NewComplex2D(ext)
		w.slices[s].CopyRegion(init.Slices[s], ext)
	}

	w.descend(0)
	if got := testing.AllocsPerRun(20, func() { w.descend(0) }); got != 0 {
		t.Errorf("halo per-location kernel allocates %v, want 0", got)
	}
}

// TestExchangeAllocationSlope guards the message path of a whole 2x2
// in-process run: what one more iteration allocates — the slope of
// runtime.MemStats.TotalAlloc between an N- and a 2N-iteration
// Reconstruct, so the per-run set-up cancels — stays under 1/16 of the
// bytes that iteration exchanges. Every pasted region is packed into the
// rank's scratch, copied into a recycled buffer and released after
// unpacking, and each rank re-arms one deadline timer for all its waits;
// what remains is the channel of each barrier inside the cost allreduce. Before payloads were recycled the slope was 2.07x the bytes
// exchanged (one allocation to pack, one for Send's copy).
func TestExchangeAllocationSlope(t *testing.T) {
	prob, _ := buildProblem(t, 8, 8, 0.7, 3)
	halo := tiling.HaloForWindow(prob.WindowN)
	m := mesh(t, prob, 2, 2, halo)
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	run := func(iters int) (allocated, sentPerIter float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, HaloWidth: halo, ExtraRows: 1, StepSize: 0.01,
			Iterations: iters, ExchangesPerIteration: 1, Timeout: testTimeout,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc - before.TotalAlloc), float64(res.BytesSent) / float64(iters)
	}
	const n = 20
	short, _ := run(n)
	long, sent := run(2 * n)
	slope := (long - short) / n
	t.Logf("%.0f B allocated per iteration for %.0f B exchanged (1/%.0f)", slope, sent, sent/slope)
	if slope > sent/16 {
		t.Errorf("an hve iteration allocates %.0f B, budget %.0f (1/16 of the %.0f B it exchanges)", slope, sent/16, sent)
	}
}
