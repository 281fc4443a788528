package fft

// The mixed-radix kernel: an out-of-place Stockham autosort transform
// for lengths n = 2^a * 3^b * 5^c that are not powers of two. One pass
// per radix r reads r inputs n/r apart, applies the r-point butterfly
// and the inter-stage twiddles, and writes r adjacent blocks of the
// other buffer; the data leaves the last pass in natural order, so
// there is no digit-reversal permutation. Passes ping-pong between the
// caller's array and a work buffer of the same length.
//
// In the pass for radix r, with t the product of the radices already
// applied and m = n/(t*r), butterfly (p, q) for p < m, q < t reads
// src[q+t*(p+j*m)], j < r, and writes dst[q+t*(r*p+k)], k < r, times
// exp(-2*pi*i*p*k*t/n) — entry p*k*t of the plan's length-n twiddle
// table. Neither the butterfly nor the twiddle depends on q, so the q
// loop is contiguous in both buffers. For the same reason b interleaved
// sequences (element i of sequence c at x[i*b+c], as the columns of a
// row-major array are) transform together when q runs to s = t*b
// instead: the 2-D column pass is one call whose inner loops are at
// least a row long.

// smoothRadices factors n into the pass radices of the mixed-radix
// kernel — 4s first, then at most one 2, then 3s and 5s — or returns
// nil when n has a prime factor above 5.
func smoothRadices(n int) []int {
	var radices []int
	for _, r := range []int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	if n != 1 {
		return nil
	}
	return radices
}

// forwardMixed applies the forward transform in place to the len(x)/n
// interleaved sequences in x, using work (same length as x) as the
// other half of the ping-pong.
func (p *Plan) forwardMixed(x, work []complex128) {
	src, dst := x, work
	batch := len(x) / p.n
	m, t := p.n, 1
	for _, r := range p.radices {
		m /= r
		switch r {
		case 4:
			stockham4(src, dst, p.twiddle, m, t*batch, t)
		case 2:
			stockham2(src, dst, p.twiddle, m, t*batch, t)
		case 3:
			stockham3(src, dst, p.twiddle, m, t*batch, t)
		case 5:
			stockham5(src, dst, p.twiddle, m, t*batch, t)
		}
		t *= r
		src, dst = dst, src
	}
	if len(p.radices)%2 == 1 {
		copy(x, work)
	}
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
