// Package fft implements complex discrete Fourier transforms in pure Go.
//
// The package provides cached 1-D plans, 2-D transforms built on
// row/column passes on the calling goroutine, and the
// fftshift helpers used by diffraction physics.
//
// A plan runs one of two kernels, chosen from the length alone:
//
//   - mixed-radix: out-of-place Stockham autosort with radix-4, 2, 3
//     and 5 butterflies (stockham.go), for every length whose prime
//     factors are all <= 5 — powers of two included (1, 2, 16, 24, 32,
//     48, 96, 100, 120, 256, ...);
//   - Bluestein: chirp-z convolution through a padded power-of-two
//     plan of the same mixed-radix kernel, for lengths with a prime
//     factor above 5 (7, 22, 34, 97, ...).
//
// Bluestein costs several times more per point, so window sizes are
// best kept 2-3-5-smooth.
//
// Both kernels only run forward; an inverse is conj(forward(conj x))/N,
// with the two conjugation passes made once per 1-D or 2-D transform.
//
// Conventions: Forward computes X[k] = sum_n x[n] exp(-2*pi*i*n*k/N) with
// no normalization; Inverse applies the +i kernel and divides by N, so
// Inverse(Forward(x)) == x. These match the conventions assumed by the
// multislice forward model and its adjoint.
package fft

import (
	"fmt"
	"math"
	"sync"
)

// Direction selects the transform kernel sign.
type Direction int

const (
	// Forward uses the exp(-i...) kernel, no scaling.
	Forward Direction = iota
	// Inverse uses the exp(+i...) kernel and scales by 1/N.
	Inverse
)

// kernel names the algorithm a plan runs; buildPlan picks it from n.
type kernel uint8

const (
	mixedKernel     kernel = iota // n = 2^a 3^b 5^c
	bluesteinKernel               // n has a prime factor above 5
)

// Plan holds precomputed twiddle factors for transforms of a fixed
// length. Plans are safe for concurrent use once created: all state is
// read-only during execution except per-call scratch passed by the
// caller or drawn from the plan's pool.
type Plan struct {
	n    int
	kind kernel
	invN float64 // 1/n

	// Mixed-radix state.
	twiddle []complex128 // exp(-2*pi*i*k/n), k < n
	radices []int        // one Stockham pass per entry, product n

	// Bluestein state.
	m     int          // padded power-of-2 length >= 2n-1
	chirp []complex128 // exp(-i*pi*k^2/n), length n
	bconj []complex128 // FFT of the conjugate chirp over m, length m
	sub   *Plan        // mixed-radix plan of length m

	work sync.Pool // *[]complex128 of workLen(), for calls without a Scratch
}

var (
	planCacheMu sync.Mutex
	planCache   = map[int]*Plan{}
)

// NewPlan returns a (possibly cached) plan for length n transforms.
// It panics if n <= 0.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	planCacheMu.Lock()
	if p, ok := planCache[n]; ok {
		planCacheMu.Unlock()
		return p
	}
	planCacheMu.Unlock()
	// Build outside the lock: Bluestein plans recursively need a
	// power-of-2 sub-plan, and plan construction is idempotent, so a
	// rare duplicate build is harmless.
	p := buildPlan(n)
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	if existing, ok := planCache[n]; ok {
		return existing
	}
	planCache[n] = p
	return p
}

func buildPlan(n int) *Plan {
	p := &Plan{n: n, invN: 1 / float64(n)}
	p.work.New = func() any {
		s := make([]complex128, p.workLen())
		return &s
	}
	if radices, ok := smoothRadices(n); ok {
		p.kind = mixedKernel
		p.twiddle = twiddleTable(n)
		p.radices = radices
		return p
	}
	// Bluestein: convolve with a chirp via a padded power-of-2 FFT.
	p.kind = bluesteinKernel
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k*k mod 2n to keep the angle argument small for large n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(c, s)
	}
	p.sub = NewPlan(m)
	// The 1/m of the convolution's inverse transform is folded in here.
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		conj := complex(real(p.chirp[k])/float64(m), -imag(p.chirp[k])/float64(m))
		b[k] = conj
		if k > 0 {
			b[m-k] = conj
		}
	}
	p.sub.forward(b, make([]complex128, m))
	p.bconj = b
	return p
}

// twiddleTable returns exp(-2*pi*i*k/n) for k < n.
func twiddleTable(n int) []complex128 {
	tw := make([]complex128, n)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

// workLen returns the length of the 1-D work buffer one transform
// needs beside its input: n for the mixed-radix ping-pong, twice the
// padded length (the convolution and its ping-pong) for Bluestein.
func (p *Plan) workLen() int {
	if p.kind == bluesteinKernel {
		return 2 * p.m
	}
	return p.n
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// Transform applies the transform in place to x, which must have length
// Len(). dir selects forward or inverse. The work buffer comes from an
// internal sync.Pool; use TransformScratch with a per-worker Scratch
// for a guaranteed allocation-free hot path.
func (p *Plan) Transform(x []complex128, dir Direction) {
	p.TransformScratch(x, dir, nil)
}

// TransformScratch is Transform with an explicit workspace arena. When
// s is non-nil all scratch comes from (and stays in) the arena, so
// steady-state calls perform zero heap allocations; a nil s falls back
// to the internal pool. The arena must not be shared across goroutines.
func (p *Plan) TransformScratch(x []complex128, dir Direction, s *Scratch) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length mismatch: plan %d, data %d", p.n, len(x)))
	}
	if s != nil {
		p.transform(x, dir, s.workBuf(p.workLen()))
		return
	}
	bufp := p.work.Get().(*[]complex128)
	p.transform(x, dir, *bufp)
	p.work.Put(bufp)
}

// transform applies the transform in place to x with work of length
// workLen().
func (p *Plan) transform(x []complex128, dir Direction, work []complex128) {
	if dir == Inverse {
		conjAll(x)
	}
	p.forward(x, work)
	if dir == Inverse {
		conjScale(x, x, p.invN)
	}
}

// forward runs the plan's kernel in place on x with work of length
// workLen().
func (p *Plan) forward(x, work []complex128) {
	if p.kind == bluesteinKernel {
		p.bluestein(x, x, 1, work)
		return
	}
	if res, _ := p.passes(x, work); len(p.radices)%2 == 1 {
		copy(x, res)
	}
}

// forwardT forward-transforms the len(src)/n interleaved sequences of
// src (element i of sequence c at src[i*batch+c]) and leaves them
// transposed (at [c*n+i]) in res, which is src or dst; other is the
// other one. work has length workLen().
func (p *Plan) forwardT(src, dst, work []complex128) (res, other []complex128) {
	if p.kind == mixedKernel {
		return p.passes(src, dst)
	}
	batch := len(src) / p.n
	for c := 0; c < batch; c++ {
		p.bluestein(dst[c*p.n:(c+1)*p.n], src[c:], batch, work)
	}
	return dst, src
}

// bluestein evaluates an arbitrary-length forward DFT as a convolution
// with the chirp, carried out over the padded length m in work. It
// reads element k from src[k*stride] and writes it to dst[k]; dst may
// be src when stride is 1.
func (p *Plan) bluestein(dst, src []complex128, stride int, work []complex128) {
	n, m := p.n, p.m
	a, b := work[:m], work[m:2*m]
	for k, ch := range p.chirp {
		a[k] = src[k*stride] * ch
	}
	clear(a[n:])
	a, b = p.sub.passes(a, b)
	// The inverse transform over m is conj(forward(conj)); bconj
	// carries its 1/m.
	for i, w := range p.bconj {
		v := a[i] * w
		a[i] = complex(real(v), -imag(v))
	}
	a, _ = p.sub.passes(a, b)
	for k, ch := range p.chirp {
		dst[k] = complex(real(a[k]), -imag(a[k])) * ch
	}
}

func conjAll(x []complex128) {
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
}

// conjScale sets dst = scale * conj(src), the closing pass of an
// inverse transform; dst and src may be the same slice.
func conjScale(dst, src []complex128, scale float64) {
	for i, v := range src {
		dst[i] = complex(scale*real(v), -scale*imag(v))
	}
}
