// Package fft implements complex discrete Fourier transforms in pure Go.
//
// The package provides cached 1-D plans, 2-D transforms built on
// row/column passes with optional goroutine parallelism, and the
// fftshift helpers used by diffraction physics.
//
// A plan runs one of three kernels, chosen from the length alone:
//
//   - radix-2: iterative in-place Cooley-Tukey, for powers of two;
//   - mixed-radix: out-of-place Stockham autosort with radix-4, 2, 3
//     and 5 butterflies (stockham.go), for every other length whose
//     prime factors are all <= 5 (6, 12, 24, 48, 96, 100, 120, ...);
//   - Bluestein: chirp-z convolution through a padded radix-2 plan, for
//     lengths with a prime factor above 5 (7, 22, 34, 97, ...).
//
// The first two cost about the same per point; Bluestein costs several
// times more, so window sizes are best kept 2-3-5-smooth.
//
// Conventions: Forward computes X[k] = sum_n x[n] exp(-2*pi*i*n*k/N) with
// no normalization; Inverse applies the +i kernel and divides by N, so
// Inverse(Forward(x)) == x. These match the conventions assumed by the
// multislice forward model and its adjoint.
package fft

import (
	"fmt"
	"math"
	"math/bits"
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
	radix2Kernel    kernel = iota // n a power of two
	mixedKernel                   // n = 2^a 3^b 5^c, not a power of two
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

	// exp(-2*pi*i*k/n): k < n/2 for radix-2, k < n for mixed-radix.
	twiddle []complex128
	rev     []int // radix-2: bit-reversal permutation
	radices []int // mixed-radix: one Stockham pass per entry, product n

	// Bluestein state.
	m     int          // padded power-of-2 length >= 2n-1
	chirp []complex128 // exp(-i*pi*k^2/n), length n
	bconj []complex128 // FFT of the conjugate chirp, length m
	sub   *Plan        // radix-2 plan of length m

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
	if n&(n-1) == 0 {
		p.kind = radix2Kernel
		p.twiddle = twiddleTable(n, n/2)
		p.rev = bitRevTable(n)
		return p
	}
	if radices := smoothRadices(n); radices != nil {
		p.kind = mixedKernel
		p.twiddle = twiddleTable(n, n)
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
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		conj := complex(real(p.chirp[k]), -imag(p.chirp[k]))
		b[k] = conj
		if k > 0 {
			b[m-k] = conj
		}
	}
	p.sub.forwardPow2(b)
	p.bconj = b
	return p
}

// twiddleTable returns exp(-2*pi*i*k/n) for k < count.
func twiddleTable(n, count int) []complex128 {
	tw := make([]complex128, count)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

// workLen returns the length of the 1-D work buffer one transform
// needs beside its input: none for radix-2 (in place), n for the
// mixed-radix ping-pong, the padded length for Bluestein.
func (p *Plan) workLen() int {
	switch p.kind {
	case mixedKernel:
		return p.n
	case bluesteinKernel:
		return p.m
	}
	return 0
}

func bitRevTable(n int) []int {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	rev := make([]int, n)
	for i := range rev {
		rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// Transform applies the transform in place to x, which must have length
// Len(). dir selects forward or inverse. Non-power-of-2 lengths draw
// their work buffer from an internal sync.Pool; use TransformScratch
// with a per-worker Scratch for a guaranteed allocation-free hot path.
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
	switch {
	case p.kind == radix2Kernel:
		p.transform(x, dir, nil)
	case s != nil:
		p.transform(x, dir, s.workBuf(p.workLen()))
	default:
		bufp := p.work.Get().(*[]complex128)
		p.transform(x, dir, *bufp)
		p.work.Put(bufp)
	}
}

// transform runs the plan's kernel on x with work of length workLen().
// A mixed-radix plan also takes len(x)/n interleaved sequences in x
// (the 2-D column pass) with work as long as x. The radix-2 and
// mixed-radix kernels only run forward; their inverse is
// conj(forward(conj(x)))/n, element by element over all of x.
func (p *Plan) transform(x []complex128, dir Direction, work []complex128) {
	if p.kind == bluesteinKernel {
		p.bluestein(x, dir, work)
		return
	}
	if dir == Inverse {
		conjAll(x)
	}
	if p.kind == radix2Kernel {
		p.forwardPow2(x)
	} else {
		p.forwardMixed(x, work)
	}
	if dir == Inverse {
		scale := complex(p.invN, 0)
		for i := range x {
			x[i] = complex(real(x[i]), -imag(x[i])) * scale
		}
	}
}

// forwardPow2 runs the iterative radix-2 Cooley-Tukey kernel.
func (p *Plan) forwardPow2(x []complex128) {
	n := p.n
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				a := x[k]
				b := x[k+half] * w
				x[k] = a + b
				x[k+half] = a - b
			}
		}
	}
}

// bluestein evaluates an arbitrary-length DFT as a convolution using
// the caller-provided workspace a, which must have length m.
func (p *Plan) bluestein(x []complex128, dir Direction, a []complex128) {
	n, m := p.n, p.m
	for i := range a {
		a[i] = 0
	}
	if dir == Forward {
		for k := 0; k < n; k++ {
			a[k] = x[k] * p.chirp[k]
		}
	} else {
		for k := 0; k < n; k++ {
			// Inverse kernel: conjugate chirps.
			ch := complex(real(p.chirp[k]), -imag(p.chirp[k]))
			a[k] = x[k] * ch
		}
	}
	p.sub.forwardPow2(a)
	if dir == Forward {
		for i := 0; i < m; i++ {
			a[i] *= p.bconj[i]
		}
	} else {
		// FFT of the (non-conjugated) chirp is conj(bconj) because the
		// chirp sequence is conjugate-symmetric; reuse it.
		for i := 0; i < m; i++ {
			a[i] *= complex(real(p.bconj[i]), -imag(p.bconj[i]))
		}
	}
	// Inverse FFT of length m via conjugation trick.
	conjAll(a)
	p.sub.forwardPow2(a)
	invM := complex(1/float64(m), 0)
	if dir == Forward {
		for k := 0; k < n; k++ {
			v := complex(real(a[k]), -imag(a[k])) * invM
			x[k] = v * p.chirp[k]
		}
	} else {
		scale := complex(p.invN, 0)
		for k := 0; k < n; k++ {
			v := complex(real(a[k]), -imag(a[k])) * invM
			ch := complex(real(p.chirp[k]), -imag(p.chirp[k]))
			x[k] = v * ch * scale
		}
	}
}

func conjAll(x []complex128) {
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
}
