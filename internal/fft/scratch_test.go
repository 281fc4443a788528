package fft

import (
	"testing"

	"ptychopath/internal/grid"
)

// TestTransformScratchMatchesTransform checks bit-identical output of
// the arena path against the pooled path for both kernels and both
// directions — where the work buffer lives does not change the math.
func TestTransformScratchMatchesTransform(t *testing.T) {
	var s Scratch
	for _, n := range []int{8, 22, 24, 48, 64} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		for _, dir := range []Direction{Forward, Inverse} {
			want := append([]complex128(nil), x...)
			got := append([]complex128(nil), x...)
			p.Transform(want, dir)
			p.TransformScratch(got, dir, &s)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d dir=%d: element %d differs: %v vs %v", n, dir, i, want[i], got[i])
				}
			}
		}
	}
}

// TestTransformScratch2DMatches checks the 2-D arena path against the
// pooled path, with every pairing of row and column kernel.
func TestTransformScratch2DMatches(t *testing.T) {
	var s Scratch
	for _, dims := range [][2]int{{16, 16}, {24, 24}, {22, 22}, {16, 24}, {24, 16}, {22, 24}, {24, 22}, {16, 22}, {22, 16}} {
		w, h := dims[0], dims[1]
		p := NewPlan2D(w, h, false)
		a := grid.NewComplex2DSize(w, h)
		for i := range a.Data {
			a.Data[i] = complex(float64(i%11)-5, float64(i%3)-1)
		}
		want := a.Clone()
		p.Transform(want, Forward)
		got := a.Clone()
		p.TransformScratch(got, Forward, &s)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%dx%d: element %d differs: %v vs %v", w, h, i, want.Data[i], got.Data[i])
			}
		}
	}
}

// TestTransformScratchAllocationFree guards the arena invariant: once
// warmed, transforms through a Scratch never touch the heap — for the
// mixed-radix kernel and for Bluestein, whose work buffer holds the
// padded convolution and its ping-pong (34 pads to 128), and the 2-D
// sweep; each size starts from an empty arena.
func TestTransformScratchAllocationFree(t *testing.T) {
	for _, n := range []int{34, 32, 24, 22} {
		var s Scratch
		p := NewPlan(n)
		x := make([]complex128, n)
		p.TransformScratch(x, Forward, &s)
		if got := testing.AllocsPerRun(50, func() {
			p.TransformScratch(x, Forward, &s)
			p.TransformScratch(x, Inverse, &s)
		}); got != 0 {
			t.Errorf("1-D n=%d: %v allocs per transform pair, want 0", n, got)
		}
		p2 := NewPlan2D(n, n, false)
		a := grid.NewComplex2DSize(n, n)
		s.Warm(p2)
		if got := testing.AllocsPerRun(50, func() {
			p2.TransformScratch(a, Forward, &s)
			p2.TransformScratch(a, Inverse, &s)
		}); got != 0 {
			t.Errorf("2-D n=%d: %v allocs per transform pair, want 0", n, got)
		}
	}
}

// TestScratchWarm checks Warm pre-grows enough that the very first
// transform after warming is allocation-free, whichever kernels the
// rows and columns run.
func TestScratchWarm(t *testing.T) {
	for _, dims := range [][2]int{{24, 48}, {22, 24}, {24, 22}, {32, 24}, {24, 32}, {22, 32}, {32, 22}, {22, 44}} {
		var s Scratch
		p2 := NewPlan2D(dims[0], dims[1], false)
		s.Warm(p2)
		a := grid.NewComplex2DSize(dims[0], dims[1])
		if got := testing.AllocsPerRun(1, func() {
			p2.TransformScratch(a, Forward, &s)
		}); got != 0 {
			t.Errorf("%dx%d: first post-Warm transform allocates %v, want 0", dims[0], dims[1], got)
		}
	}
}
