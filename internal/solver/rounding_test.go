package solver

import (
	"math"
	"math/rand"
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
)

// TestVacuumStartTraceIgnoresRounding perturbs a vacuum start at the
// rounding level and asks the cost trace not to notice. From vacuum
// the far field is the probe's aperture: analytically zero outside the
// bright-field disk, rounding noise when computed. A residual that
// takes that noise's phase where the measurement is not dark gives
// every build, and every perturbation, its own trace; the dark-pixel
// guard of multislice.LossGrad is what prevents it. Covers a
// power-of-two, a Bluestein and a mixed-radix window.
func TestVacuumStartTraceIgnoresRounding(t *testing.T) {
	for _, n := range []int{16, 22, 24, 32} {
		radius := float64(n) / 4
		pat, err := scan.Raster(scan.RasterConfig{
			Cols: 4, Rows: 4, StepPix: scan.StepForOverlap(radius, 0.75),
			RadiusPix: radius, MarginPix: float64(n)/2 + 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 7)
		prob, err := Simulate(SimulateConfig{
			Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: n, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := phantom.Vacuum(obj.Bounds(), 2)
		nudged := start.Clone()
		rng := rand.New(rand.NewSource(5))
		for _, sl := range nudged.Slices {
			for i := range sl.Data {
				sl.Data[i] *= complex(1+1e-15*rng.NormFloat64(), 0)
			}
		}
		opt := Options{StepSize: 0.02, Iterations: 5, Mode: Batch}
		a, err := Reconstruct(prob, start.Slices, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Reconstruct(prob, nudged.Slices, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.CostHistory {
			if d := math.Abs(a.CostHistory[i] - b.CostHistory[i]); d > 1e-9*a.CostHistory[i] {
				t.Errorf("n=%d iteration %d: cost %.12g from vacuum, %.12g from vacuum nudged by 1e-15",
					n, i, a.CostHistory[i], b.CostHistory[i])
			}
		}
	}
}
