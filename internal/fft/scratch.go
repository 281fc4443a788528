package fft

// Scratch is a reusable per-worker arena for FFT workspace buffers.
// Passing one to TransformScratch makes transforms allocation-free in
// steady state: the arena grows to the largest size requested and is
// reused verbatim afterwards. This is the foundation of the repo's
// allocation-free gradient hot path — each reconstruction worker (one
// per simulated GPU) owns exactly one Scratch and threads it through
// every transform it performs.
//
// A Scratch is NOT safe for concurrent use. Concurrent workers must
// each own their own arena; sharing one between goroutines corrupts
// in-flight transforms.
type Scratch struct {
	col  []complex128 // 2-D transform: the other half of the whole-array ping-pong
	work []complex128 // 1-D work buffer: mixed-radix ping-pong, or Bluestein convolution and its ping-pong
}

// colBuf returns the column buffer grown to at least n elements.
func (s *Scratch) colBuf(n int) []complex128 {
	if cap(s.col) < n {
		s.col = make([]complex128, n)
	}
	return s.col[:n]
}

// workBuf returns the 1-D work buffer grown to at least n elements.
func (s *Scratch) workBuf(n int) []complex128 {
	if cap(s.work) < n {
		s.work = make([]complex128, n)
	}
	return s.work[:n]
}

// Bytes is the arena's current size.
func (s *Scratch) Bytes() int64 { return int64(cap(s.col)+cap(s.work)) * 16 }

// Warm pre-grows the arena for transforms of a w x h plan so that even
// the first TransformScratch call performs no allocation. Safe to call
// with any plan the arena will later serve; the arena keeps the
// largest size seen.
func (s *Scratch) Warm(p *Plan2D) {
	s.colBuf(p.w * p.h)
	s.workBuf(max(p.rowPlan.workLen(), p.colPlan.workLen()))
}
