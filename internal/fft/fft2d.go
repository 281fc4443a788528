package fft

import (
	"fmt"
	"sync"

	"ptychopath/internal/grid"
)

// Plan2D performs 2-D transforms on w x h complex arrays by applying
// 1-D transforms along rows and then columns. A Plan2D is safe for
// concurrent use; per-call scratch comes from an internal pool.
type Plan2D struct {
	w, h    int
	rowPlan *Plan
	colPlan *Plan
	scratch sync.Pool // *Scratch, for calls without one
}

// NewPlan2D returns a plan for w x h transforms. The third argument is
// ignored: every transform runs on the calling goroutine, and callers
// parallelize over transforms instead.
func NewPlan2D(w, h int, _ bool) *Plan2D {
	p := &Plan2D{
		w:       w,
		h:       h,
		rowPlan: NewPlan(w),
		colPlan: NewPlan(h),
	}
	p.scratch.New = func() any { return new(Scratch) }
	return p
}

// W returns the plan width.
func (p *Plan2D) W() int { return p.w }

// H returns the plan height.
func (p *Plan2D) H() int { return p.h }

// Transform applies the 2-D transform in place to a, whose dimensions
// must match the plan. The array's Bounds offset is irrelevant; only the
// shape matters. Scratch comes from an internal pool; hot paths that
// must not allocate should hold a per-worker Scratch and call
// TransformScratch instead.
func (p *Plan2D) Transform(a *grid.Complex2D, dir Direction) {
	if a.W() != p.w || a.H() != p.h {
		panic(fmt.Sprintf("fft: plan %dx%d, array %dx%d", p.w, p.h, a.W(), a.H()))
	}
	p.transformSerial(a, dir, nil)
}

// TransformScratch applies the 2-D transform in place drawing every
// workspace buffer from the per-worker arena s, making steady-state
// calls allocation-free. The transform always runs on the calling
// goroutine. A nil s falls back to the internal pool.
func (p *Plan2D) TransformScratch(a *grid.Complex2D, dir Direction, s *Scratch) {
	if a.W() != p.w || a.H() != p.h {
		panic(fmt.Sprintf("fft: plan %dx%d, array %dx%d", p.w, p.h, a.W(), a.H()))
	}
	p.transformSerial(a, dir, s)
}

// transformSerial is the closure-free single-goroutine sweep. With a
// non-nil arena it performs zero steady-state heap allocations — the
// gradient hot path of every reconstruction engine.
// The kernels only run forward, so an inverse conjugates the array
// once on the way in and once, with the 1/(w*h), on the way out.
func (p *Plan2D) transformSerial(a *grid.Complex2D, dir Direction, s *Scratch) {
	pooled := s == nil
	if pooled {
		s = p.scratch.Get().(*Scratch)
	}
	data := a.Data
	w, h := p.w, p.h
	work := s.workBuf(max(p.rowPlan.workLen(), p.colPlan.workLen()))
	if dir == Inverse {
		conjAll(data)
	}
	// The columns of the row-major array are w interleaved sequences;
	// transformed and left transposed they make an h-wide array whose
	// interleaved sequences are the rows, and the second call restores
	// the layout. The two calls ping-pong between the array and buf.
	res, other := p.colPlan.forwardT(data, s.colBuf(w*h), work)
	res, _ = p.rowPlan.forwardT(res, other, work)
	if dir == Inverse {
		conjScale(data, res, p.rowPlan.invN*p.colPlan.invN)
	} else if &res[0] != &data[0] {
		copy(data, res)
	}
	if pooled {
		p.scratch.Put(s)
	}
}

// Shift applies fftshift in place: quadrants are swapped so the
// zero-frequency component moves to the array center. For odd dimensions
// Shift moves index 0 to floor(n/2); Unshift reverses it exactly.
func Shift(a *grid.Complex2D) { shift(a, false) }

// Unshift applies the inverse of Shift (ifftshift).
func Unshift(a *grid.Complex2D) { shift(a, true) }

func shift(a *grid.Complex2D, inverse bool) {
	w, h := a.W(), a.H()
	dx, dy := w/2, h/2
	if inverse {
		dx, dy = (w+1)/2, (h+1)/2
	}
	out := make([]complex128, len(a.Data))
	for y := 0; y < h; y++ {
		ny := (y + dy) % h
		for x := 0; x < w; x++ {
			nx := (x + dx) % w
			out[ny*w+nx] = a.Data[y*w+x]
		}
	}
	copy(a.Data, out)
}

// FreqIndex returns the signed frequency for index k of an n-point
// transform: 0, 1, ..., n/2-1, -n/2, ..., -1 (the NumPy fftfreq layout
// multiplied by n).
func FreqIndex(k, n int) int {
	if k <= (n-1)/2 {
		return k
	}
	return k - n
}
