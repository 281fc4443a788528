package gradsync

import (
	"sync"
	"testing"
	"time"

	"ptychopath/internal/obs"
	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/tiling"
)

// TestOnRankStatsEveryRank: the per-rank stats callback fires on EVERY
// rank once per iteration, with per-iteration deltas whose sums match
// the cumulative totals the result reports.
func TestOnRankStatsEveryRank(t *testing.T) {
	const iters = 4
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))

	var mu sync.Mutex
	calls := map[int][]int{}   // rank -> iters seen, in order
	sums := map[int][2]int64{} // rank -> summed compute/comm deltas
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: iters, Timeout: testTimeout,
		OnRankStats: func(rank, iter int, computeNS, commNS int64) {
			mu.Lock()
			calls[rank] = append(calls[rank], iter)
			s := sums[rank]
			sums[rank] = [2]int64{s[0] + computeNS, s[1] + commNS}
			mu.Unlock()
			if computeNS < 0 || commNS < 0 {
				t.Errorf("rank %d iter %d: negative delta (%d, %d)", rank, iter, computeNS, commNS)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		if len(calls[rank]) != iters {
			t.Fatalf("rank %d: %d callbacks, want %d", rank, len(calls[rank]), iters)
		}
		for i, iter := range calls[rank] {
			if iter != i {
				t.Fatalf("rank %d callback %d reported iter %d", rank, i, iter)
			}
		}
		// Deltas sum back to the cumulative totals of the result.
		if sums[rank][0] != res.PerRankComputeNS[rank] {
			t.Fatalf("rank %d compute deltas sum to %d, cumulative is %d",
				rank, sums[rank][0], res.PerRankComputeNS[rank])
		}
		if sums[rank][1] != res.PerRankCommNS[rank] {
			t.Fatalf("rank %d comm deltas sum to %d, cumulative is %d",
				rank, sums[rank][1], res.PerRankCommNS[rank])
		}
	}
}

// TestWorkerGradientAllocationFreeTraced re-runs the hot-path
// allocation guard with the tracing callback INSTALLED: enabling
// observability must not introduce a single allocation into the
// per-location kernel. (The callback itself fires at iteration
// boundaries, never per location — this pins that the option's mere
// presence doesn't change the kernel.)
func TestWorkerGradientAllocationFreeTraced(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 2)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	tr := obs.NewTrace("alloc-guard")
	opt := Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1,
		OnRankStats: func(rank, iter int, computeNS, commNS int64) {
			tr.Record("compute", 0, rank, iter, time.Now(), time.Duration(computeNS))
		},
	}
	if err := opt.validate(prob); err != nil {
		t.Fatal(err)
	}
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := m.AssignLocations(prob.Pattern)
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
		t.Errorf("per-location kernel allocates %v with tracing enabled, want 0", allocs)
	}
}

// BenchmarkIterationTracing measures the tracing overhead on the
// iteration loop: the same 2x2-mesh reconstruction with the per-rank
// stats callback absent ("off") and installed, feeding an obs.Trace
// exactly the way the job service does ("on"). The delta between the
// two is the full observability cost per iteration — the BENCH_ file
// in the repo root records it staying under 2%.
func BenchmarkIterationTracing(b *testing.B) {
	prob, obj := buildProblem(b, 6, 6, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(b, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	const iters = 8

	run := func(b *testing.B, opts func() Options) {
		for i := 0; i < b.N; i++ {
			if _, err := Reconstruct(prob, init.Slices, opts()); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := func() Options {
		return Options{Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: iters, Timeout: testTimeout}
	}
	b.Run("off", func(b *testing.B) { run(b, base) })
	b.Run("on", func(b *testing.B) {
		run(b, func() Options {
			tr := obs.NewTrace("bench")
			root := tr.Begin("job", 0, obs.RankCoordinator, obs.IterNone)
			opt := base()
			opt.OnRankStats = func(rank, iter int, computeNS, commNS int64) {
				end := time.Now()
				commStart := end.Add(-time.Duration(commNS))
				tr.Record("compute", root, rank, iter,
					commStart.Add(-time.Duration(computeNS)), time.Duration(computeNS))
				tr.Record("comm", root, rank, iter, commStart, time.Duration(commNS))
			}
			return opt
		})
	})
}
