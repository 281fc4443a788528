package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	root := make([]complex128, n) // the n-th roots of unity, computed once
	for i := range root {
		root[i] = cmplx.Exp(complex(0, sign*2*math.Pi*float64(i)/float64(n)))
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * root[j*k%n]
		}
		out[k] = s
	}
	if dir == Inverse {
		for k := range out {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestMatchesNaiveDFT checks every length from 1 to 128, which covers
// both kernels and every radix combination the mixed-radix kernel
// meets below 128, in both directions.
func TestMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 128; n++ {
		x := randVec(rng, n)
		for _, dir := range []Direction{Forward, Inverse} {
			want := naiveDFT(x, dir)
			got := append([]complex128(nil), x...)
			NewPlan(n).Transform(got, dir)
			if e := maxErr(got, want); e > 1e-9*float64(n) {
				t.Errorf("n=%d dir=%d: error %g", n, dir, e)
			}
		}
	}
}

// TestKernelChoice pins which kernel NewPlan picks from the length.
func TestKernelChoice(t *testing.T) {
	for _, tc := range []struct {
		kind kernel
		ns   []int
	}{
		{mixedKernel, []int{1, 2, 3, 5, 6, 12, 15, 16, 20, 24, 32, 45, 48, 60, 64, 96, 100, 120, 4096}},
		{bluesteinKernel, []int{7, 11, 22, 34, 97, 101}},
	} {
		for _, n := range tc.ns {
			if got := NewPlan(n).kind; got != tc.kind {
				t.Errorf("n=%d: kernel %d, want %d", n, got, tc.kind)
			}
		}
	}
}

// TestPowersOfTwo checks every power of two from 1 to 4096 — radix-4
// passes with and without the closing radix-2, and the n = 1 plan
// with no pass at all — against the naive DFT and round trip.
func TestPowersOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 4096; n *= 2 {
		x := randVec(rng, n)
		p := NewPlan(n)
		for _, dir := range []Direction{Forward, Inverse} {
			got := append([]complex128(nil), x...)
			p.Transform(got, dir)
			if e := maxErr(got, naiveDFT(x, dir)); e > 1e-12*float64(n) {
				t.Errorf("n=%d dir=%d: error %g", n, dir, e)
			}
		}
		y := append([]complex128(nil), x...)
		p.Transform(y, Forward)
		p.Transform(y, Inverse)
		if e := maxErr(x, y); e > 1e-13*math.Log2(float64(2*n)) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 6, 12, 15, 16, 20, 24, 45, 48, 60, 64, 96, 100, 120, 121, 256, 360} {
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Transform(y, Forward)
		p.Transform(y, Inverse)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestParsevalTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 12, 15, 21, 24, 45, 48, 60, 64, 96, 100, 120, 360} {
		x := randVec(rng, n)
		var td float64
		for _, v := range x {
			td += real(v)*real(v) + imag(v)*imag(v)
		}
		y := append([]complex128(nil), x...)
		NewPlan(n).Transform(y, Forward)
		var fd float64
		for _, v := range y {
			fd += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(fd/float64(n)-td) > 1e-8*td {
			t.Errorf("n=%d: Parseval violated: time %g freq/n %g", n, td, fd/float64(n))
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 1 + rng.Intn(64)
		p := NewPlan(n)
		a, b := randVec(rng, n), randVec(rng, n)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		// FFT(alpha*a + b)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = alpha*a[i] + b[i]
		}
		p.Transform(lhs, Forward)
		// alpha*FFT(a) + FFT(b)
		fa := append([]complex128(nil), a...)
		fb := append([]complex128(nil), b...)
		p.Transform(fa, Forward)
		p.Transform(fb, Forward)
		for i := range fa {
			fa[i] = alpha*fa[i] + fb[i]
		}
		return maxErr(lhs, fa) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftTheoremProperty(t *testing.T) {
	// A circular shift in time multiplies the spectrum by a phase ramp.
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		n := 2 + rng.Intn(63)
		s := rng.Intn(n)
		p := NewPlan(n)
		x := randVec(rng, n)
		shifted := make([]complex128, n)
		for i := range x {
			shifted[(i+s)%n] = x[i]
		}
		fx := append([]complex128(nil), x...)
		p.Transform(fx, Forward)
		fs := append([]complex128(nil), shifted...)
		p.Transform(fs, Forward)
		for k := 0; k < n; k++ {
			phase := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(s)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a delta at index 0 is all-ones.
	for _, n := range []int{4, 9, 16} {
		x := make([]complex128, n)
		x[0] = 1
		NewPlan(n).Transform(x, Forward)
		for k, v := range x {
			if cmplx.Abs(v-1) > 1e-10 {
				t.Fatalf("n=%d k=%d: delta transform = %v, want 1", n, k, v)
			}
		}
	}
}

func TestConstantSignal(t *testing.T) {
	// FFT of all-ones is n*delta.
	n := 12
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	NewPlan(n).Transform(x, Forward)
	if cmplx.Abs(x[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", x[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", k, x[k])
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	if NewPlan(64) != NewPlan(64) {
		t.Fatal("plans of the same length must be cached")
	}
}

func TestPlanInvalidLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(0) must panic")
		}
	}()
	NewPlan(0)
}

func TestTransformLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	NewPlan(8).Transform(make([]complex128, 7), Forward)
}

func TestPlanConcurrentUse(t *testing.T) {
	// A single plan used from many goroutines must race-cleanly produce
	// correct results (run with -race in CI).
	// 48 is mixed-radix and 22 Bluestein: both draw work from the pool.
	for _, n := range []int{48, 22} {
		p := NewPlan(n)
		rng := rand.New(rand.NewSource(7))
		x := randVec(rng, n)
		want := naiveDFT(x, Forward)
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				for i := 0; i < 50; i++ {
					y := append([]complex128(nil), x...)
					p.Transform(y, Forward)
					if maxErr(y, want) > 1e-8 {
						done <- errMismatch
						return
					}
				}
				done <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

var errMismatch = errorString("concurrent transform mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFreqIndex(t *testing.T) {
	// Even length.
	got := make([]int, 8)
	for k := range got {
		got[k] = FreqIndex(k, 8)
	}
	want := []int{0, 1, 2, 3, -4, -3, -2, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreqIndex(%d,8) = %d, want %d", i, got[i], want[i])
		}
	}
	// Odd length.
	got5 := make([]int, 5)
	for k := range got5 {
		got5[k] = FreqIndex(k, 5)
	}
	want5 := []int{0, 1, 2, -2, -1}
	for i := range want5 {
		if got5[i] != want5[i] {
			t.Fatalf("FreqIndex(%d,5) = %d, want %d", i, got5[i], want5[i])
		}
	}
}
