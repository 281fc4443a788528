package multislice

import (
	"testing"

	"ptychopath/internal/grid"
)

// benchEngine builds an engine plus a realistic surrounding problem: a
// 2-slice 64x64 object with a Fresnel-like kernel and a window that
// hangs off the object edge (the vacuum-padding path).
func benchEngine(n int) (*Engine, []*grid.Complex2D, []*grid.Complex2D, *grid.Float2D, grid.Rect) {
	probe := grid.NewComplex2DSize(n, n)
	h := grid.NewComplex2DSize(n, n)
	for i := range probe.Data {
		probe.Data[i] = complex(1, 0.25)
		h.Data[i] = complex(0.8, 0.1)
	}
	e := NewEngine(probe, h)
	slices := []*grid.Complex2D{grid.NewComplex2DSize(64, 64), grid.NewComplex2DSize(64, 64)}
	grads := []*grid.Complex2D{grid.NewComplex2DSize(64, 64), grid.NewComplex2DSize(64, 64)}
	for _, s := range slices {
		s.Fill(complex(1, 0))
	}
	y := grid.NewFloat2DSize(n, n)
	for i := range y.Data {
		y.Data[i] = 0.5
	}
	win := grid.RectWH(10, 10, n, n)
	return e, slices, grads, y, win
}

// BenchmarkGradientKernel measures the per-probe-location gradient
// kernel shared by all three reconstruction engines — the hot path the
// paper's memory-efficiency argument rests on. Covers both FFT
// kernels: n=22 Bluestein, and the mixed-radix one at n=24 (the window
// the quickstart and examples use) and at a power of two, n=32.
func BenchmarkGradientKernel(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n22-bluestein", 22}, {"n24-mixed", 24}, {"n32-pow2", 32}} {
		b.Run(bc.name, func(b *testing.B) {
			e, slices, grads, y, win := benchEngine(bc.n)
			e.LossGrad(slices, win, y, grads)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.LossGrad(slices, win, y, grads)
			}
		})
	}
}

// TestLossGradAllocationFree guards the tentpole invariant: after the
// engine's scratch arena has warmed up, evaluating a probe location's
// loss+gradient performs zero heap allocations, for both FFT kernels
// and for the probe-gradient variant used by joint refinement.
func TestLossGradAllocationFree(t *testing.T) {
	for _, n := range []int{22, 24, 32} {
		e, slices, grads, y, win := benchEngine(n)
		if got := testing.AllocsPerRun(20, func() {
			e.LossGrad(slices, win, y, grads)
		}); got != 0 {
			t.Errorf("n=%d: LossGrad allocates %v per location, want 0", n, got)
		}
		probeGrad := grid.NewComplex2DSize(n, n)
		if got := testing.AllocsPerRun(20, func() {
			e.LossGradProbe(slices, win, y, grads, probeGrad)
		}); got != 0 {
			t.Errorf("n=%d: LossGradProbe allocates %v per location, want 0", n, got)
		}
		if got := testing.AllocsPerRun(20, func() {
			e.Loss(slices, win, y)
		}); got != 0 {
			t.Errorf("n=%d: Loss allocates %v per location, want 0", n, got)
		}
	}
}
