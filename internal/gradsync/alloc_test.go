package gradsync

import (
	"runtime"
	"testing"
	"time"

	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

// TestWorkerGradientAllocationFree guards the Gradient Decomposition
// hot path: one location's step — a one-location sweep of the pool in
// batch mode, worker.location in faithful mode, whose gradient goes
// through the window scratch — performs no heap allocations once the
// worker's arena is warm. Run on a 1x1 mesh so no concurrent rank
// pollutes the process-global allocation counter AllocsPerRun reads.
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
			step := func() { w.location(0) }
			if mode == ModeBatch {
				step = func() { w.pool.Sweep(0, 1, 0) }
			}
			step()
			allocs = testing.AllocsPerRun(10, step)
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

// TestIntraPoolPersistsAcrossChunks checks a rank's IntraWorkers pool is
// built once for the run: a whole iteration with IntraWorkers 2 — two
// rounds, so two sweeps of the pool — starts no goroutine and allocates
// nothing once warm, and closing the rank ends the pool's goroutine.
func TestIntraPoolPersistsAcrossChunks(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 1)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	opt := Options{Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, RoundsPerIteration: 2, IntraWorkers: 2}
	if err := opt.validate(prob); err != nil {
		t.Fatal(err)
	}
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := m.AssignLocations(prob.Pattern)
	err := simmpi.Run(1, testTimeout, func(comm *simmpi.Comm) error {
		before := runtime.NumGoroutine()
		w := newWorker(comm, prob, &opt, owned, init.Slices)
		if got := runtime.NumGoroutine(); got != before+1 {
			t.Errorf("a rank with IntraWorkers 2 runs %d goroutines beyond its own, want 1", got-before)
		}
		iteration := func() {
			if _, err := w.iteration(); err != nil {
				t.Error(err)
			}
		}
		iteration()
		if allocs := testing.AllocsPerRun(10, iteration); allocs != 0 {
			t.Errorf("a gd rank iteration with IntraWorkers 2 allocates %v, want 0", allocs)
		}
		if got := runtime.NumGoroutine(); got != before+1 {
			t.Errorf("after the iterations the rank runs %d goroutines beyond its own, want 1", got-before)
		}
		w.close()
		// An exiting goroutine is counted until it has returned.
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(3 * time.Second); got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if got > before {
			t.Errorf("a closed rank leaves %d goroutines running", got-before)
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
