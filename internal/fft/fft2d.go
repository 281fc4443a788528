package fft

import (
	"fmt"
	"runtime"
	"sync"

	"ptychopath/internal/grid"
)

// Plan2D performs 2-D transforms on w x h complex arrays by applying
// 1-D transforms along rows and then columns. A Plan2D is safe for
// concurrent use; per-call scratch comes from an internal pool.
type Plan2D struct {
	w, h     int
	rowPlan  *Plan
	colPlan  *Plan
	parallel bool
	colBuf   sync.Pool
}

// NewPlan2D returns a plan for w x h transforms. Set parallel to spread
// row/column passes across GOMAXPROCS goroutines, which pays off for
// transforms of roughly 256x256 and larger.
func NewPlan2D(w, h int, parallel bool) *Plan2D {
	p := &Plan2D{
		w:        w,
		h:        h,
		rowPlan:  NewPlan(w),
		colPlan:  NewPlan(h),
		parallel: parallel,
	}
	p.colBuf.New = func() any {
		s := make([]complex128, p.colLen())
		return &s
	}
	return p
}

// colLen is the length of the column pass's buffer: one gathered
// column, or the whole array when the column plan is mixed-radix and
// transforms every column in one strided call.
func (p *Plan2D) colLen() int {
	if p.colPlan.kind == mixedKernel {
		return p.w * p.h
	}
	return p.h
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
	if p.parallel {
		p.rowsParallel(a, dir)
		p.colsParallel(a, dir)
		return
	}
	p.transformSerial(a, dir, nil)
}

// TransformScratch applies the 2-D transform in place drawing every
// workspace buffer from the per-worker arena s, making steady-state
// calls allocation-free. The transform always runs on the calling
// goroutine (an arena is inherently single-threaded), regardless of the
// plan's parallel flag. A nil s falls back to the internal pool.
func (p *Plan2D) TransformScratch(a *grid.Complex2D, dir Direction, s *Scratch) {
	if a.W() != p.w || a.H() != p.h {
		panic(fmt.Sprintf("fft: plan %dx%d, array %dx%d", p.w, p.h, a.W(), a.H()))
	}
	p.transformSerial(a, dir, s)
}

// transformSerial is the closure-free single-goroutine row/column
// sweep. With a non-nil arena it performs zero steady-state heap
// allocations — the gradient hot path of every reconstruction engine.
func (p *Plan2D) transformSerial(a *grid.Complex2D, dir Direction, s *Scratch) {
	data := a.Data
	w, h := p.w, p.h
	for y := 0; y < h; y++ {
		p.rowPlan.TransformScratch(data[y*w:(y+1)*w], dir, s)
	}
	var col []complex128
	var pooled *[]complex128
	if s != nil {
		col = s.colBuf(p.colLen())
	} else {
		pooled = p.colBuf.Get().(*[]complex128)
		col = *pooled
	}
	if p.colPlan.kind == mixedKernel {
		// The columns of a row-major array are w interleaved
		// sequences, which the Stockham passes take in one call.
		p.colPlan.transform(data, dir, col)
	} else {
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				col[y] = data[y*w+x]
			}
			p.colPlan.TransformScratch(col, dir, s)
			for y := 0; y < h; y++ {
				data[y*w+x] = col[y]
			}
		}
	}
	if pooled != nil {
		p.colBuf.Put(pooled)
	}
}

func (p *Plan2D) rowsParallel(a *grid.Complex2D, dir Direction) {
	data := a.Data
	w := p.w
	apply := func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			p.rowPlan.Transform(data[y*w:(y+1)*w], dir)
		}
	}
	p.split(p.h, apply)
}

func (p *Plan2D) colsParallel(a *grid.Complex2D, dir Direction) {
	data := a.Data
	w, h := p.w, p.h
	apply := func(x0, x1 int) {
		bufp := p.colBuf.Get().(*[]complex128)
		col := (*bufp)[:h]
		for x := x0; x < x1; x++ {
			for y := 0; y < h; y++ {
				col[y] = data[y*w+x]
			}
			p.colPlan.Transform(col, dir)
			for y := 0; y < h; y++ {
				data[y*w+x] = col[y]
			}
		}
		p.colBuf.Put(bufp)
	}
	p.split(w, apply)
}

// split partitions [0, n) across workers; only reached from the
// parallel row/column passes (serial plans route through
// transformSerial), and falls back to one goroutine when n is too small
// to amortize goroutine overhead.
func (p *Plan2D) split(n int, apply func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		apply(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			apply(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
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
