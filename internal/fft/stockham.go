package fft

// The mixed-radix kernel: an out-of-place Stockham autosort transform
// for lengths n = 2^a * 3^b * 5^c. One pass per radix r reads r inputs
// n/r apart, applies the r-point butterfly and the inter-stage
// twiddles, and writes r adjacent blocks of the other buffer; the data
// leaves the last pass in natural order, so there is no digit-reversal
// permutation. Passes ping-pong between two buffers of the same
// length, and a caller that can read its result from either (the 2-D
// transform, Bluestein) needs no copy back after an odd number of them.
//
// In the pass for radix r, with t the product of the radices already
// applied and m = n/(t*r), butterfly (p, q) for p < m, q < t reads
// src[q+t*(p+j*m)], j < r, and writes dst[q+t*(r*p+k)], k < r, times
// exp(-2*pi*i*p*k*t/n) — entry p*k*t of the plan's length-n twiddle
// table. Neither the butterfly nor the twiddle depends on q, so the q
// loop is contiguous in both buffers. For the same reason b interleaved
// sequences (element i of sequence c at x[i*b+c], as the columns of a
// row-major array are) transform together when q runs to s = t*b
// instead: every inner loop is at least b long. The last pass (m = 1,
// no twiddles) writes sequence c contiguously from c*n instead — the
// array transposed — so the other axis of a 2-D array is interleaved
// in turn, and no axis is ever transformed one short row at a time.

// smoothRadices factors n into the pass radices of the mixed-radix
// kernel — 4s first, then at most one 2, then 3s and 5s (none for
// n = 1) — and reports whether n has no prime factor above 5.
func smoothRadices(n int) ([]int, bool) {
	var radices []int
	for _, r := range []int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

// passes runs the forward transform of the len(src)/n interleaved
// sequences in src, ping-ponging between src and dst (same length),
// and leaves the sequences transposed, element i of sequence c at
// index c*n+i; a single sequence comes out as it is. It returns the
// buffer the last pass wrote — src itself for an even number of
// passes — and the other one.
func (p *Plan) passes(src, dst []complex128) (res, other []complex128) {
	batch := len(src) / p.n
	m, t := p.n, 1
	for _, r := range p.radices {
		m /= r
		switch {
		case r == 4 && m > 1:
			stockham4(src, dst, p.twiddle, m, t*batch, t)
		case r == 4:
			stockham4T(src, dst, t, batch)
		case r == 2 && m > 1:
			stockham2(src, dst, p.twiddle, m, t*batch, t)
		case r == 2:
			stockham2T(src, dst, t, batch)
		case r == 3 && m > 1:
			stockham3(src, dst, p.twiddle, m, t*batch, t)
		case r == 3:
			stockham3T(src, dst, t, batch)
		case r == 5 && m > 1:
			stockham5(src, dst, p.twiddle, m, t*batch, t)
		case r == 5:
			stockham5T(src, dst, t, batch)
		}
		t *= r
		src, dst = dst, src
	}
	return src, dst
}

// mulNegI returns -i*z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// mulReal returns c*z for real c.
func mulReal(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

func butterfly4(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, t3 := a1+a3, mulNegI(a1-a3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

const sin60 = 0.866025403784438646763723170752936183 // sin(pi/3)

func butterfly3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	t1 := a1 + a2
	t2 := a0 - mulReal(0.5, t1)
	t3 := mulNegI(mulReal(sin60, a1-a2))
	return a0 + t1, t2 + t3, t2 - t3
}

const (
	cos72  = 0.309016994374947424102293417182819059  // cos(2*pi/5)
	sin72  = 0.951056516295153572116439333379382143  // sin(2*pi/5)
	cos144 = -0.809016994374947424102293417182819059 // cos(4*pi/5)
	sin144 = 0.587785252292473129168705954639072769  // sin(4*pi/5)
)

func butterfly5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	t1, t2 := a1+a4, a2+a3
	t3, t4 := a1-a4, a2-a3
	m1 := a0 + mulReal(cos72, t1) + mulReal(cos144, t2)
	m2 := a0 + mulReal(cos144, t1) + mulReal(cos72, t2)
	n1 := mulNegI(mulReal(sin72, t3) + mulReal(sin144, t4))
	n2 := mulNegI(mulReal(sin144, t3) - mulReal(sin72, t4))
	return a0 + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1
}

// stockham2, 3, 4 and 5 each run one pass of their radix: m groups of
// s contiguous butterflies, group p twiddled by the powers of tw[p*t]
// (group 0 by none).
func stockham2(src, dst, tw []complex128, m, s, t int) {
	for p := 0; p < m; p++ {
		x0, x1 := src[s*p:][:s], src[s*(p+m):][:s]
		y0, y1 := dst[2*s*p:][:s], dst[2*s*p+s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q] = x0[q]+x1[q], x0[q]-x1[q]
			}
			continue
		}
		w1 := tw[p*t]
		for q := range x0 {
			y0[q], y1[q] = x0[q]+x1[q], (x0[q]-x1[q])*w1
		}
	}
}

func stockham3(src, dst, tw []complex128, m, s, t int) {
	for p := 0; p < m; p++ {
		x0, x1, x2 := src[s*p:][:s], src[s*(p+m):][:s], src[s*(p+2*m):][:s]
		y0, y1, y2 := dst[3*s*p:][:s], dst[3*s*p+s:][:s], dst[3*s*p+2*s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q], y2[q] = butterfly3(x0[q], x1[q], x2[q])
			}
			continue
		}
		w1, w2 := tw[p*t], tw[2*p*t]
		for q := range x0 {
			b0, b1, b2 := butterfly3(x0[q], x1[q], x2[q])
			y0[q], y1[q], y2[q] = b0, b1*w1, b2*w2
		}
	}
}

func stockham4(src, dst, tw []complex128, m, s, t int) {
	for p := 0; p < m; p++ {
		x0, x1, x2, x3 := src[s*p:][:s], src[s*(p+m):][:s], src[s*(p+2*m):][:s], src[s*(p+3*m):][:s]
		y0, y1, y2, y3 := dst[4*s*p:][:s], dst[4*s*p+s:][:s], dst[4*s*p+2*s:][:s], dst[4*s*p+3*s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q], y2[q], y3[q] = butterfly4(x0[q], x1[q], x2[q], x3[q])
			}
			continue
		}
		w1, w2, w3 := tw[p*t], tw[2*p*t], tw[3*p*t]
		for q := range x0 {
			b0, b1, b2, b3 := butterfly4(x0[q], x1[q], x2[q], x3[q])
			y0[q], y1[q], y2[q], y3[q] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

func stockham5(src, dst, tw []complex128, m, s, t int) {
	for p := 0; p < m; p++ {
		x0, x1, x2, x3, x4 := src[s*p:][:s], src[s*(p+m):][:s], src[s*(p+2*m):][:s], src[s*(p+3*m):][:s], src[s*(p+4*m):][:s]
		y0, y1, y2, y3, y4 := dst[5*s*p:][:s], dst[5*s*p+s:][:s], dst[5*s*p+2*s:][:s], dst[5*s*p+3*s:][:s], dst[5*s*p+4*s:][:s]
		if p == 0 {
			for q := range x0 {
				y0[q], y1[q], y2[q], y3[q], y4[q] = butterfly5(x0[q], x1[q], x2[q], x3[q], x4[q])
			}
			continue
		}
		w1, w2, w3, w4 := tw[p*t], tw[2*p*t], tw[3*p*t], tw[4*p*t]
		for q := range x0 {
			b0, b1, b2, b3, b4 := butterfly5(x0[q], x1[q], x2[q], x3[q], x4[q])
			y0[q], y1[q], y2[q], y3[q], y4[q] = b0, b1*w1, b2*w2, b3*w3, b4*w4
		}
	}
}

// stockham2T, 3T, 4T and 5T each run the last pass of their radix —
// one group of t*batch butterflies, no twiddles — and write sequence c
// contiguously from dst[r*t*c].
func stockham2T(src, dst []complex128, t, batch int) {
	s := t * batch
	x0, x1 := src[:s], src[s:][:s]
	for c := 0; c < batch; c++ {
		y0, y1 := dst[2*t*c:][:t], dst[2*t*c+t:][:t]
		for i := range y0 {
			q := i*batch + c
			y0[i], y1[i] = x0[q]+x1[q], x0[q]-x1[q]
		}
	}
}

func stockham3T(src, dst []complex128, t, batch int) {
	s := t * batch
	x0, x1, x2 := src[:s], src[s:][:s], src[2*s:][:s]
	for c := 0; c < batch; c++ {
		y0, y1, y2 := dst[3*t*c:][:t], dst[3*t*c+t:][:t], dst[3*t*c+2*t:][:t]
		for i := range y0 {
			q := i*batch + c
			y0[i], y1[i], y2[i] = butterfly3(x0[q], x1[q], x2[q])
		}
	}
}

func stockham4T(src, dst []complex128, t, batch int) {
	s := t * batch
	x0, x1, x2, x3 := src[:s], src[s:][:s], src[2*s:][:s], src[3*s:][:s]
	for c := 0; c < batch; c++ {
		y0, y1, y2, y3 := dst[4*t*c:][:t], dst[4*t*c+t:][:t], dst[4*t*c+2*t:][:t], dst[4*t*c+3*t:][:t]
		for i := range y0 {
			q := i*batch + c
			y0[i], y1[i], y2[i], y3[i] = butterfly4(x0[q], x1[q], x2[q], x3[q])
		}
	}
}

func stockham5T(src, dst []complex128, t, batch int) {
	s := t * batch
	x0, x1, x2, x3, x4 := src[:s], src[s:][:s], src[2*s:][:s], src[3*s:][:s], src[4*s:][:s]
	for c := 0; c < batch; c++ {
		y0, y1, y2, y3, y4 := dst[5*t*c:][:t], dst[5*t*c+t:][:t], dst[5*t*c+2*t:][:t], dst[5*t*c+3*t:][:t], dst[5*t*c+4*t:][:t]
		for i := range y0 {
			q := i*batch + c
			y0[i], y1[i], y2[i], y3[i], y4[i] = butterfly5(x0[q], x1[q], x2[q], x3[q], x4[q])
		}
	}
}
