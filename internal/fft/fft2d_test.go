package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptychopath/internal/grid"
)

func randArray(rng *rand.Rand, w, h int) *grid.Complex2D {
	a := grid.NewComplex2DSize(w, h)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

// naive2D computes the 2-D DFT directly.
func naive2D(a *grid.Complex2D, dir Direction) *grid.Complex2D {
	w, h := a.W(), a.H()
	out := grid.NewComplex2D(a.Bounds)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for ky := 0; ky < h; ky++ {
		for kx := 0; kx < w; kx++ {
			var s complex128
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					ang := sign * 2 * math.Pi * (float64(kx*x)/float64(w) + float64(ky*y)/float64(h))
					s += a.Data[y*w+x] * cmplx.Exp(complex(0, ang))
				}
			}
			out.Data[ky*w+kx] = s
		}
	}
	if dir == Inverse {
		out.Scale(complex(1/float64(w*h), 0))
	}
	return out
}

func TestPlan2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every size but 22x22 runs the strided mixed-radix passes and
	// their transposed last one on at least one axis, with an odd and
	// an even count of passes (8 has two, 16 two, 24 three, 5 one) and
	// none at all (1); 24x22 and 22x24 pair them with Bluestein.
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {4, 4}, {8, 4}, {3, 5}, {6, 8}, {16, 16}, {24, 24}, {12, 20}, {24, 22}, {22, 24}, {22, 22}, {16, 24}, {24, 16}} {
		w, h := dims[0], dims[1]
		a := randArray(rng, w, h)
		for _, dir := range []Direction{Forward, Inverse} {
			want := naive2D(a, dir)
			got := a.Clone()
			NewPlan2D(w, h, false).Transform(got, dir)
			if got.MaxDiff(want) > 1e-8 {
				t.Errorf("%dx%d dir=%d: 2-D error %g", w, h, dir, got.MaxDiff(want))
			}
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{8, 8}, {15, 9}, {24, 24}, {12, 20}, {24, 22}, {32, 32}, {64, 64}} {
		w, h := dims[0], dims[1]
		a := randArray(rng, w, h)
		b := a.Clone()
		p := NewPlan2D(w, h, false)
		p.Transform(b, Forward)
		p.Transform(b, Inverse)
		if a.MaxDiff(b) > 1e-10 {
			t.Errorf("%dx%d: roundtrip error %g", w, h, a.MaxDiff(b))
		}
	}
}

func TestPlan2DMatchesRowColumnTransforms(t *testing.T) {
	// The 2-D sweep's strided, transposing passes against plain 1-D
	// transforms of every row and then every gathered column, at sizes
	// too large for the naive DFT.
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{128, 128}, {96, 80}, {68, 64}} {
		w, h := dims[0], dims[1]
		a := randArray(rng, w, h)
		want := a.Clone()
		rows, cols := NewPlan(w), NewPlan(h)
		for y := 0; y < h; y++ {
			rows.Transform(want.Data[y*w:(y+1)*w], Forward)
		}
		col := make([]complex128, h)
		for x := 0; x < w; x++ {
			for y := range col {
				col[y] = want.Data[y*w+x]
			}
			cols.Transform(col, Forward)
			for y, v := range col {
				want.Data[y*w+x] = v
			}
		}
		NewPlan2D(w, h, false).Transform(a, Forward)
		if d := a.MaxDiff(want); d > 1e-10 {
			t.Fatalf("%dx%d: 2-D transform differs from the row/column transforms by %g", w, h, d)
		}
	}
}

func TestPlan2DOffsetBoundsIgnored(t *testing.T) {
	// Tiles at arbitrary offsets transform identically to origin tiles.
	rng := rand.New(rand.NewSource(4))
	a := randArray(rng, 16, 16)
	b := grid.NewComplex2D(grid.NewRect(100, 200, 116, 216))
	copy(b.Data, a.Data)
	p := NewPlan2D(16, 16, false)
	p.Transform(a, Forward)
	p.Transform(b, Forward)
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatal("offset bounds must not affect transform")
		}
	}
}

func TestPlan2DShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	NewPlan2D(8, 8, false).Transform(grid.NewComplex2DSize(8, 9), Forward)
}

func TestShiftUnshiftInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{8, 8}, {7, 7}, {9, 6}, {5, 8}} {
		a := randArray(rng, dims[0], dims[1])
		b := a.Clone()
		Shift(b)
		Unshift(b)
		if a.MaxDiff(b) > 0 {
			t.Errorf("%v: Unshift(Shift(x)) != x", dims)
		}
	}
}

func TestShiftMovesDCToCenter(t *testing.T) {
	a := grid.NewComplex2DSize(8, 8)
	a.Set(0, 0, 1)
	Shift(a)
	if a.At(4, 4) != 1 {
		t.Fatal("Shift must move (0,0) to (w/2, h/2)")
	}
	var nonzero int
	for _, v := range a.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatal("Shift must be a permutation")
	}
}

func TestShiftOddDims(t *testing.T) {
	a := grid.NewComplex2DSize(5, 5)
	a.Set(0, 0, 1)
	Shift(a)
	if a.At(2, 2) != 1 {
		t.Fatalf("odd-dim Shift put DC at wrong place")
	}
}

func TestPlan2DSeparability(t *testing.T) {
	// FFT2(outer(u, v)) == outer(FFT(u), FFT(v)).
	rng := rand.New(rand.NewSource(6))
	n := 16
	u := randVec(rng, n)
	v := randVec(rng, n)
	a := grid.NewComplex2DSize(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			a.Data[y*n+x] = u[x] * v[y]
		}
	}
	NewPlan2D(n, n, false).Transform(a, Forward)
	fu := append([]complex128(nil), u...)
	fv := append([]complex128(nil), v...)
	p := NewPlan(n)
	p.Transform(fu, Forward)
	p.Transform(fv, Forward)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if cmplx.Abs(a.Data[y*n+x]-fu[x]*fv[y]) > 1e-8 {
				t.Fatal("separability violated")
			}
		}
	}
}

func BenchmarkFFT1D1024(b *testing.B) {
	p := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Transform(x, Forward)
	}
}

func BenchmarkFFT2D128(b *testing.B) {
	p := NewPlan2D(128, 128, false)
	a := grid.NewComplex2DSize(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Transform(a, Forward)
	}
}

// BenchmarkFFT2DWindow times the transform the gradient kernel makes:
// one window through a per-worker arena, forward then inverse, at a
// Bluestein, a mixed-radix and a power-of-two window size.
func BenchmarkFFT2DWindow(b *testing.B) {
	for _, n := range []int{22, 24, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p := NewPlan2D(n, n, false)
			a := randArray(rand.New(rand.NewSource(1)), n, n)
			var s Scratch
			s.Warm(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.TransformScratch(a, Forward, &s)
				p.TransformScratch(a, Inverse, &s)
			}
		})
	}
}
