package gradsync

import (
	"runtime"
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

// TestWorkerGradientAllocationFree guards the Gradient Decomposition
// hot path: worker.location, the per-location body of worker.iteration,
// performs no heap allocations once the worker's arena is warm — in
// batch mode and in faithful mode, whose gradient goes through the
// window scratch. Run on a 1x1 mesh so no concurrent rank pollutes the
// process-global allocation counter AllocsPerRun reads.
func TestWorkerGradientAllocationFree(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 2)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := m.AssignLocations(prob.Pattern)
	for _, mode := range []Mode{ModeBatch, ModeFaithful} {
		opt := Options{Mesh: m, Mode: mode, StepSize: 0.01, Iterations: 1}
		if err := opt.validate(prob); err != nil {
			t.Fatal(err)
		}
		var allocs float64
		err := simmpi.Run(1, testTimeout, func(comm *simmpi.Comm) error {
			w := newWorker(comm, prob, &opt, owned, init.Slices)
			defer w.close()
			w.location(0)
			allocs = testing.AllocsPerRun(10, func() { w.location(0) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("gradsync per-location kernel (mode %d) allocates %v, want 0", mode, allocs)
		}
	}
}

// TestIntraPoolPersistsAcrossChunks checks the IntraWorkers pool is
// built once per worker and its sub-workspaces are reused: dispatching
// two chunks through the pool allocates nothing after the first.
func TestIntraPoolPersistsAcrossChunks(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 1)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	opt := Options{Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, IntraWorkers: 2}
	if err := opt.validate(prob); err != nil {
		t.Fatal(err)
	}
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := m.AssignLocations(prob.Pattern)
	err := simmpi.Run(1, testTimeout, func(comm *simmpi.Comm) error {
		w := newWorker(comm, prob, &opt, owned, init.Slices)
		defer w.close()
		if w.intra == nil || len(w.intra.subs) != 2 {
			t.Errorf("expected a 2-sub persistent pool, got %+v", w.intra)
			return nil
		}
		n := len(w.owned)
		before := w.intra.subs[0].ws
		w.gradientChunkParallel(0, n)
		w.gradientChunkParallel(0, n)
		if w.intra.subs[0].ws != before {
			t.Error("sub-worker workspace was reallocated between chunks")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeAllocationSlope guards the message path of a whole 2x2
// in-process run: what one more iteration allocates — the slope of
// runtime.MemStats.TotalAlloc between an N- and a 2N-iteration
// Reconstruct, so the per-run set-up cancels — stays under 1/16 of the
// bytes that iteration exchanges. Every payload is packed into the
// worker's scratch, copied into a recycled buffer and released after
// unpacking, and each rank re-arms one deadline timer for all its waits;
// what remains is the channel of each barrier inside the cost allreduce. Before payloads were recycled the slope was 2.05x the bytes
// exchanged (one allocation to pack, one for Send's copy).
func TestExchangeAllocationSlope(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.7, 2)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	run := func(iters int) (allocated, sentPerIter float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: iters, Timeout: testTimeout,
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
		t.Errorf("a gd iteration allocates %.0f B, budget %.0f (1/16 of the %.0f B it exchanges)", slope, sent/16, sent)
	}
}
