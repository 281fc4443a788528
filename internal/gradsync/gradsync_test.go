package gradsync

import (
	"math"
	"testing"
	"time"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

const testTimeout = 10 * time.Second

// buildProblem constructs a synthetic problem whose scan footprint and
// overlap ratio are controlled by the caller.
func buildProblem(t testing.TB, scanCols, scanRows int, overlap float64, slices int) (*solver.Problem, *phantom.Object) {
	t.Helper()
	radius := 8.0
	step := scan.StepForOverlap(radius, overlap)
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: scanCols, Rows: scanRows, StepPix: step, RadiusPix: radius, MarginPix: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, slices, 5)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics:  physics.PaperOptics(),
		Pattern: pat,
		Object:  obj,
		WindowN: 16,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob, obj
}

func mesh(t testing.TB, prob *solver.Problem, rows, cols, halo int) *tiling.Mesh {
	t.Helper()
	m, err := tiling.NewMesh(prob.ImageBounds(), rows, cols, halo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParallelGradientEqualsSerial is THE correctness theorem of the
// paper's decomposition: the stitched decomposed gradient must equal the
// serial total gradient to machine precision, and every rank's post-pass
// buffer must equal the global gradient restricted to its extended tile.
func TestParallelGradientEqualsSerial(t *testing.T) {
	cases := []struct {
		name    string
		meshR   int
		meshC   int
		overlap float64
		slices  int
		scanC   int
		scanR   int
	}{
		{"1x2-low-overlap", 1, 2, 0.5, 1, 4, 2},
		{"2x2-mid-overlap", 2, 2, 0.7, 2, 4, 4},
		{"3x3-high-overlap", 3, 3, 0.8, 1, 6, 6},
		{"2x3-asymmetric", 2, 3, 0.72, 2, 6, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, obj := buildProblem(t, tc.scanC, tc.scanR, tc.overlap, tc.slices)
			// Evaluate gradients at a NON-ground-truth point so they are
			// non-trivial.
			eval := phantom.Vacuum(obj.Bounds(), tc.slices)

			halo := tiling.HaloForWindow(prob.WindowN)
			m := mesh(t, prob, tc.meshR, tc.meshC, halo)

			serial, _ := solver.TotalGradient(prob, eval.Slices, prob.ImageBounds())
			stitched, buffers, err := ParallelGradient(prob, eval.Slices, m, false, testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			scale := 0.0
			for _, g := range serial {
				if v := g.MaxAbs(); v > scale {
					scale = v
				}
			}
			if scale == 0 {
				t.Fatal("serial gradient is identically zero; test is vacuous")
			}
			for s := range serial {
				if d := stitched[s].MaxDiff(serial[s]); d > 1e-9*scale {
					t.Fatalf("slice %d: stitched gradient differs from serial by %g (scale %g)", s, d, scale)
				}
			}
			// Stronger invariant: every rank's buffer equals the global
			// gradient restricted to its extended tile.
			for rank, bufs := range buffers {
				r, c := m.RowCol(rank)
				ext := m.Extended(r, c)
				for s := range bufs {
					want := serial[s].Extract(ext)
					if d := bufs[s].MaxDiff(want); d > 1e-9*scale {
						t.Fatalf("rank %d slice %d: buffer differs from restricted global gradient by %g", rank, s, d)
					}
				}
			}
		})
	}
}

// TestParallelGradientHighOverlapNonAdjacent forces the halo to span
// multiple tiles (the paper's Fig 2(f) regime where probe circles
// overlap non-adjacent tiles) and checks the chained passes still
// produce the exact global gradient.
func TestParallelGradientHighOverlapNonAdjacent(t *testing.T) {
	prob, obj := buildProblem(t, 6, 6, 0.85, 1)
	eval := phantom.Vacuum(obj.Bounds(), 1)
	// A 4x4 mesh over this small image makes tiles ~15 px while the halo
	// is 9 px, so extended tiles overlap diagonal AND distance-2 tiles.
	m := mesh(t, prob, 4, 4, tiling.HaloForWindow(prob.WindowN))
	if m.MaxNeighborDistance() < 2 {
		t.Skip("geometry did not produce non-adjacent overlaps; widen halo")
	}
	serial, _ := solver.TotalGradient(prob, eval.Slices, prob.ImageBounds())
	stitched, _, err := ParallelGradient(prob, eval.Slices, m, false, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	scale := serial[0].MaxAbs()
	if d := stitched[0].MaxDiff(serial[0]); d > 1e-9*scale {
		t.Fatalf("non-adjacent overlap case: gradient differs by %g (scale %g)", d, scale)
	}
}

func TestParallelGradientWithoutAPPPIdenticalResult(t *testing.T) {
	// Disabling APPP changes scheduling, never results.
	prob, obj := buildProblem(t, 4, 4, 0.75, 1)
	eval := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	withAPPP, _, err := ParallelGradient(prob, eval.Slices, m, false, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := ParallelGradient(prob, eval.Slices, m, true, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if withAPPP[0].MaxDiff(without[0]) > 0 {
		t.Fatal("APPP toggle changed numerical results")
	}
}

// TestBatchModeMatchesSerialReconstruction: with one round per iteration
// the parallel batch reconstruction is bit-for-bit (up to FP roundoff)
// the serial batch gradient descent.
func TestBatchModeMatchesSerialReconstruction(t *testing.T) {
	prob, obj := buildProblem(t, 4, 4, 0.7, 2)
	init := phantom.Vacuum(obj.Bounds(), 2)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))

	serial, err := solver.Reconstruct(prob, init.Slices, solver.Options{
		StepSize: 0.02, Iterations: 4, Mode: solver.Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 4,
		RoundsPerIteration: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range serial.Slices {
		scale := serial.Slices[s].MaxAbs()
		if d := par.Slices[s].MaxDiff(serial.Slices[s]); d > 1e-8*scale {
			t.Fatalf("slice %d: parallel reconstruction differs from serial by %g", s, d)
		}
	}
	// Cost histories must match too.
	for i := range serial.CostHistory {
		if math.Abs(par.CostHistory[i]-serial.CostHistory[i]) > 1e-8*(1+serial.CostHistory[i]) {
			t.Fatalf("iteration %d: cost %g vs serial %g", i, par.CostHistory[i], serial.CostHistory[i])
		}
	}
}

func TestFaithfulModeConverges(t *testing.T) {
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeFaithful, StepSize: 0.01, Iterations: 8,
		RoundsPerIteration: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.CostHistory[0], res.CostHistory[len(res.CostHistory)-1]
	if last >= first*0.7 {
		t.Fatalf("faithful mode did not converge: %g -> %g", first, last)
	}
}

func TestMultipleRoundsPerIteration(t *testing.T) {
	// More communication rounds must still converge (Fig 9 regime) and
	// produce finite results.
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	for _, rounds := range []int{1, 2, 4} {
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 4,
			RoundsPerIteration: rounds, Timeout: testTimeout,
		})
		if err != nil {
			t.Fatalf("rounds=%d: %v", rounds, err)
		}
		for _, sl := range res.Slices {
			if !sl.IsFinite() {
				t.Fatalf("rounds=%d produced non-finite slices", rounds)
			}
		}
		if res.CostHistory[3] >= res.CostHistory[0] {
			t.Fatalf("rounds=%d did not reduce cost: %v", rounds, res.CostHistory)
		}
	}
}

func TestCommunicationVolumeScalesWithRounds(t *testing.T) {
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	run := func(rounds int) int64 {
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 2,
			RoundsPerIteration: rounds, Timeout: testTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.BytesSent
	}
	b1, b4 := run(1), run(4)
	if b4 <= b1 {
		t.Fatalf("4 rounds sent %d bytes, 1 round %d — frequency should cost bytes", b4, b1)
	}
	ratio := float64(b4) / float64(b1)
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("byte ratio %g, want 4 (passes per iteration scale linearly)", ratio)
	}
}

func TestPerRankAccounting(t *testing.T) {
	prob, obj := buildProblem(t, 6, 6, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 3, 3, tiling.HaloForWindow(prob.WindowN))
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalLocs := 0
	for _, n := range res.PerRankLocations {
		totalLocs += n
	}
	if totalLocs != prob.Pattern.N() {
		t.Fatalf("rank location counts sum to %d, want %d", totalLocs, prob.Pattern.N())
	}
	for rank, mem := range res.PerRankMemBytes {
		if mem <= 0 {
			t.Fatalf("rank %d memory estimate %d", rank, mem)
		}
	}
	// Memory must shrink when the mesh grows (the paper's Table II/III
	// trend): compare against a 1x1 mesh.
	m1 := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	res1, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m1, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRankMemBytes[4] >= res1.PerRankMemBytes[0] {
		t.Fatalf("9-rank tile memory %d not below 1-rank %d",
			res.PerRankMemBytes[4], res1.PerRankMemBytes[0])
	}
}

func TestSingleTileMeshEqualsSerial(t *testing.T) {
	// Degenerate 1x1 mesh must reproduce the serial solver exactly with
	// zero communication.
	prob, obj := buildProblem(t, 3, 3, 0.6, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 1, 1, 0)
	par, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 3, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.BytesSent != 0 || par.MessagesSent != 0 {
		t.Fatalf("1x1 mesh communicated: %d bytes %d msgs", par.BytesSent, par.MessagesSent)
	}
	serial, err := solver.Reconstruct(prob, init.Slices, solver.Options{
		StepSize: 0.02, Iterations: 3, Mode: solver.Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Slices[0].MaxDiff(serial.Slices[0]) > 1e-10 {
		t.Fatal("1x1 mesh deviates from serial")
	}
}

func TestOptionValidation(t *testing.T) {
	prob, obj := buildProblem(t, 3, 3, 0.6, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, 4)
	cases := []Options{
		{Mesh: nil, StepSize: 1, Iterations: 1},
		{Mesh: m, StepSize: 0, Iterations: 1},
		{Mesh: m, StepSize: 1, Iterations: 0},
		{Mesh: m, StepSize: 1, Iterations: 1, RoundsPerIteration: -1},
	}
	for i, o := range cases {
		o.Timeout = testTimeout
		if _, err := Reconstruct(prob, init.Slices, o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Mismatched mesh image.
	wrong, err := tiling.NewMesh(grid.RectWH(0, 0, 10, 10), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(prob, init.Slices, Options{
		Mesh: wrong, StepSize: 1, Iterations: 1, Timeout: testTimeout,
	}); err == nil {
		t.Error("mismatched mesh image accepted")
	}
	// Wrong init slice count.
	if _, err := Reconstruct(prob, init.Slices[:0], Options{
		Mesh: m, StepSize: 1, Iterations: 1, Timeout: testTimeout,
	}); err == nil {
		t.Error("wrong init count accepted")
	}
}

func TestOnIterationCallback(t *testing.T) {
	prob, obj := buildProblem(t, 3, 3, 0.6, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	var iters []int
	_, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 3, Timeout: testTimeout,
		OnIteration: func(it int, cost float64) { iters = append(iters, it) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("callback fired %d times", len(iters))
	}
}

func TestUnevenLocationDistribution(t *testing.T) {
	// A mesh whose tiles own different location counts must not
	// deadlock (rounds are aligned globally, not per-count).
	prob, obj := buildProblem(t, 5, 3, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 2,
		RoundsPerIteration: 3, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the distribution actually was uneven.
	counts := map[int]bool{}
	for _, n := range res.PerRankLocations {
		counts[n] = true
	}
	if len(counts) < 2 {
		t.Skip("distribution happened to be even; geometry changed?")
	}
}

// TestRankMemoryHoldsTwoTileStacks: a 2x2 n32 gd rank reports the
// buffers it holds — its slices and AccBuf, the two tile-sized stacks
// of perfmodel.MemoryGDGB, plus the measurements it owns and
// window-sized engine buffers (probe, S wavefronts, FFT scratch), in
// faithful mode one window of gradient scratch, and with IntraWorkers 2
// one more engine but for the probe, which the two share. No third
// tile-sized gradient stack.
func TestRankMemoryHoldsTwoTileStacks(t *testing.T) {
	const radius = 16.0
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: 4, Rows: 4, StepPix: scan.StepForOverlap(radius, 0.7), RadiusPix: radius, MarginPix: radius + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 5)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 32, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	owned := m.AssignLocations(prob.Pattern)
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	window := int64(prob.WindowN*prob.WindowN) * 16 * int64(prob.Slices)
	engine := prob.NewEngine().MemBytes() + window // probe + FFT scratch, then the wavefronts
	for _, run := range []struct {
		mode  Mode
		intra int
	}{{ModeBatch, 0}, {ModeFaithful, 0}, {ModeBatch, 2}} {
		mode := run.mode
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, Mode: mode, StepSize: 0.01, Iterations: 1, IntraWorkers: run.intra, Timeout: testTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, got := range res.PerRankMemBytes {
			r, c := m.RowCol(rank)
			stack := int64(m.Extended(r, c).Area()) * 16 * int64(prob.Slices)
			want := 2*stack + int64(len(owned[rank])*prob.WindowN*prob.WindowN)*8 + engine
			if mode == ModeFaithful {
				want += window
			}
			if run.intra == 2 {
				want += engine - int64(prob.WindowN*prob.WindowN)*16
			}
			if got != want {
				t.Errorf("mode %d intra %d rank %d reports %d B, want %d (%.2f tile stacks beyond the measurements and engine)",
					mode, run.intra, rank, got, want, float64(got-want+2*stack)/float64(stack))
			}
		}
	}
}
