// Package multislice implements the paper's forward model G and its
// adjoint. G simulates far-field diffraction at one probe location by
// transmitting the probe wave through a stack of object slices with
// Fresnel propagation between them (Maiden/Humphry/Rodenburg 2012), and
// the adjoint backpropagates the measurement residual into a gradient of
// the cost F(V) = sum_i (|y_i| - |G(p_i, V)|)^2 with respect to the
// complex object slices — the "individual image gradient" of the paper's
// Eqn. (2).
//
// Conventions: object slices hold the complex transmission function.
// Windows outside the object bounds are treated as vacuum (t = 1), and
// gradient contributions outside the bounds are discarded; this makes
// edge probe locations well defined for both the serial solver and the
// tile-decomposed parallel algorithms.
//
// Dark pixels: the residual chi = (|D| - |y|) D/|D| has no direction
// where the far field D vanishes, and where D is analytically zero its
// computed value is rounding noise whose phase means nothing. Such
// pixels — |D| below 1e-12 of the vacuum far field's RMS, which by
// Parseval is the probe's 2-norm, fixed per engine when the probe is
// set — contribute their loss but no gradient, so a reconstruction's
// trace does not depend on the rounding of the FFT arithmetic.
//
// The adjoint runs on forward transforms only. F^H chi = N F^-1 chi is
// conj(F(conj chi)), so the backward pass carries the conjugate of the
// back-propagated wave: the loop that writes chi writes it conjugated,
// the loops that read the wave conjugate what they accumulate, and the
// conjugated multiplies by conj(h) and conj(t) become plain ones.
package multislice

import (
	"fmt"
	"math"

	"ptychopath/internal/fft"
	"ptychopath/internal/grid"
)

// Engine evaluates the forward model and gradients for a fixed probe,
// propagator and window size. An Engine is the wavefield half of the
// per-worker scratch arena: it owns the probe, S wavefront buffers (the
// last doubles as far field and chi) and an fft.Scratch, so steady-state
// Loss/LossGrad calls perform zero heap allocations. It is
// NOT safe for concurrent use; parallel workers each construct their
// own (construction is cheap — FFT plans are cached globally).
type Engine struct {
	n     int
	probe *grid.Complex2D // anchored at (0,0), n x n; psi[0]
	h     *grid.Complex2D // Fresnel kernel, n x n, read-only; nil = no propagation
	plan  *fft.Plan2D
	scr   fft.Scratch // per-engine FFT workspace arena
	dark  float64     // |D| below this is a dark pixel: no gradient

	// psi[0..S-1] are the wavefronts entering each slice, kept from the
	// last forward evaluation for the backward pass; psi[0] is the probe.
	// The forward pass transforms psi[S] in place into the far field, and
	// the backward pass, which never reads psi[S], writes chi over it.
	// Evaluate leaves its gradient in psi[1..S] for Accumulate, which
	// also reads the window and the slices it was evaluated at.
	psi []*grid.Complex2D
	win grid.Rect
	obj []*grid.Complex2D
}

// NewEngine builds an engine for the given probe and propagation kernel.
// probe must be square; h must match its shape (or be nil to disable
// inter-slice propagation, which collapses G to single-slice CDI).
func NewEngine(probe, h *grid.Complex2D) *Engine {
	n := probe.W()
	if probe.H() != n {
		panic(fmt.Sprintf("multislice: probe must be square, got %dx%d", probe.W(), probe.H()))
	}
	if h != nil && (h.W() != n || h.H() != n) {
		panic(fmt.Sprintf("multislice: propagator %dx%d does not match probe %d", h.W(), h.H(), n))
	}
	// Always copy: the engine's probe is mutable via SetProbe and must
	// never alias the caller's array (problems share one probe across
	// many engines).
	e := &Engine{
		n:     n,
		probe: grid.NewComplex2DSize(n, n),
		h:     h,
		plan:  fft.NewPlan2D(n, n, false),
	}
	e.psi = []*grid.Complex2D{e.probe}
	e.SetProbe(probe)
	e.scr.Warm(e.plan)
	return e
}

// Helper returns an engine for another goroutine evaluating the same
// locations: it shares e's probe, which only SetProbe writes, and owns
// its wavefront and FFT buffers.
func (e *Engine) Helper() *Engine {
	h := &Engine{n: e.n, probe: e.probe, h: e.h, plan: e.plan, dark: e.dark, psi: []*grid.Complex2D{e.probe}}
	h.scr.Warm(h.plan)
	return h
}

// N returns the window size.
func (e *Engine) N() int { return e.n }

// Probe returns the engine's (origin-anchored) probe field.
func (e *Engine) Probe() *grid.Complex2D { return e.probe }

// SetProbe replaces the engine's probe values (shape must match). Used
// by joint object-probe refinement between iterations.
func (e *Engine) SetProbe(p *grid.Complex2D) {
	if p.W() != e.n || p.H() != e.n {
		panic(fmt.Sprintf("multislice: probe must be %dx%d, got %dx%d", e.n, e.n, p.W(), p.H()))
	}
	copy(e.probe.Data, p.Data)
	var energy float64
	for _, v := range p.Data {
		energy += real(v)*real(v) + imag(v)*imag(v)
	}
	e.dark = 1e-12 * math.Sqrt(energy)
}

// Reserve sizes the wavefront stack for s slices, which the first
// evaluation grows to otherwise.
func (e *Engine) Reserve(s int) {
	for len(e.psi) < s+1 {
		e.psi = append(e.psi, grid.NewComplex2DSize(e.n, e.n))
	}
}

// MemBytes is what the engine's buffers hold: the probe, the wavefront
// stack as far as it has grown, and the FFT scratch.
func (e *Engine) MemBytes() int64 {
	var b int64
	for _, p := range e.psi {
		b += int64(len(p.Data)) * 16
	}
	return b + e.scr.Bytes()
}

// mulWindow multiplies the n x n wave b in place by the window win of
// slice, read where it lies; outside the slice's bounds is vacuum
// (t = 1) and b stays as it is.
func mulWindow(b []complex128, n int, slice *grid.Complex2D, win grid.Rect) {
	inter := win.Intersect(slice.Bounds)
	for y := inter.Y0; y < inter.Y1; y++ {
		t := slice.Row(y)[inter.X0-slice.Bounds.X0:][:inter.W()]
		row := b[(y-win.Y0)*n+inter.X0-win.X0:][:len(t)]
		for x, v := range t {
			row[x] *= v
		}
	}
}

// forward runs the multi-slice recursion, leaving psi[s] for s=0..S-1
// populated and returning the far-field D, which is psi[S] transformed.
func (e *Engine) forward(slices []*grid.Complex2D, win grid.Rect) *grid.Complex2D {
	s := len(slices)
	if s == 0 {
		panic("multislice: empty slice stack")
	}
	e.Reserve(s)
	for i, sl := range slices {
		next := e.psi[i+1]
		copy(next.Data, e.psi[i].Data)
		mulWindow(next.Data, e.n, sl, win)
		if e.h != nil && i < len(slices)-1 {
			e.plan.TransformScratch(next, fft.Forward, &e.scr)
			for j, hj := range e.h.Data {
				next.Data[j] *= hj
			}
			e.plan.TransformScratch(next, fft.Inverse, &e.scr)
		}
	}
	e.plan.TransformScratch(e.psi[s], fft.Forward, &e.scr)
	return e.psi[s]
}

// Simulate computes the far-field amplitude |G(p, V)| for the window win
// of the object. The result is a fresh n x n array (origin-anchored).
func (e *Engine) Simulate(slices []*grid.Complex2D, win grid.Rect) *grid.Float2D {
	d := e.forward(slices, win)
	out := grid.NewFloat2DSize(e.n, e.n)
	for i, v := range d.Data {
		out.Data[i] = amplitude(v)
	}
	return out
}

// amplitude is |v| without cmplx.Abs's guard against overflow of the
// squares, which no far field comes near; a |v| small enough for them
// to underflow is a dark pixel either way.
func amplitude(v complex128) float64 {
	return math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
}

// Loss computes f_i = sum_q (|y(q)| - |D(q)|)^2 for the window win
// against the measured amplitude yAmp (n x n).
func (e *Engine) Loss(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D) float64 {
	d := e.forward(slices, win)
	return amplitudeLoss(d, yAmp)
}

func amplitudeLoss(d *grid.Complex2D, yAmp *grid.Float2D) float64 {
	var f float64
	for i, v := range d.Data {
		r := yAmp.Data[i] - amplitude(v)
		f += r * r
	}
	return f
}

// LossGrad computes the loss at one probe location and ACCUMULATES the
// Wirtinger gradient dF/d(conj t_s) into grads (one array per slice,
// same bounds as the object slices), restricted to the window region
// clipped to the gradient arrays' bounds. It returns the loss value.
// It is Evaluate followed by Accumulate.
//
// The gradient convention matches central finite differences:
// d f / d Re(t) == 2*Re(g), d f / d Im(t) == 2*Im(g).
func (e *Engine) LossGrad(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D, grads []*grid.Complex2D) float64 {
	f := e.Evaluate(slices, win, yAmp)
	e.Accumulate(grads, nil)
	return f
}

// LossGradProbe is LossGrad extended with the gradient of the loss with
// respect to the PROBE wavefunction, accumulated into probeGrad (n x n,
// origin-anchored). This is the quantity joint object-probe refinement
// (aberration/defect correction, paper Sec. II-B point 3) descends on.
func (e *Engine) LossGradProbe(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D,
	grads []*grid.Complex2D, probeGrad *grid.Complex2D) float64 {
	if probeGrad.W() != e.n || probeGrad.H() != e.n {
		panic(fmt.Sprintf("multislice: probe gradient must be %dx%d", e.n, e.n))
	}
	f := e.Evaluate(slices, win, yAmp)
	e.Accumulate(grads, probeGrad)
	return f
}

// Evaluate runs the forward pass, the residual and the backward pass at
// one probe location and returns its loss. The location's gradient stays
// in the engine until Accumulate adds it: for i >= 1 the wave entering
// slice i, which nothing reads after step i of the backward pass, is
// overwritten with b·psi_i, and psi[S] is left holding slice 0's b.
func (e *Engine) Evaluate(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D) float64 {
	s := len(slices)
	n := e.n
	d := e.forward(slices, win)
	e.win, e.obj = win, slices

	// chi = dF/d(conj D) = (|D| - |y|) * D / |D|, zero on dark pixels,
	// written conjugated over D; one |D| serves the loss and chi.
	b := d.Data
	var f float64
	for i, v := range d.Data {
		m := amplitude(v)
		r := m - yAmp.Data[i]
		f += r * r
		if m < e.dark {
			b[i] = 0
			continue
		}
		k := r / m
		b[i] = complex(k*real(v), -k*imag(v))
	}
	// psi_bar_S = F^H chi; b = conj(psi_bar_S) = F(conj chi).
	e.plan.TransformScratch(d, fft.Forward, &e.scr)

	// Backward slice loop: b holds conj(psi_bar) after slice i.
	invN2 := 1 / float64(n*n)
	for i := s - 1; i >= 0; i-- {
		if e.h != nil && i < s-1 {
			// Adjoint of the propagation applied after slice i,
			// psi_bar' = F^-1 conj(h) F psi_bar. On the conjugate that
			// is b' = F(h F^-1 b) with F^-1 b = conj(F(conj b))/N; the
			// step below left b conjugated for the first transform.
			e.plan.TransformScratch(d, fft.Forward, &e.scr)
			for j, hj := range e.h.Data {
				b[j] = hj * complex(invN2*real(b[j]), -invN2*imag(b[j]))
			}
			e.plan.TransformScratch(d, fft.Forward, &e.scr)
		}
		if i == 0 {
			break
		}
		// g_t(i) = conj(psi_i) * psi_bar' = conj(psi_i * b)  (psi_i =
		// wave entering slice i); psi_i * b is kept for Accumulate.
		psi := e.psi[i].Data
		for j, v := range b {
			psi[j] = v * psi[j]
		}
		// psi_bar_{i-1} = conj(t_i) * psi_bar', so b *= t_i.
		mulWindow(b, n, slices[i], win)
		if e.h != nil {
			conjAll(b)
		}
	}
	return f
}

// Accumulate adds the gradient of the last Evaluate into grads (one
// array per slice), clipped to their bounds, and, when probeGrad is not
// nil, the probe gradient into probeGrad. Call it once per Evaluate.
func (e *Engine) Accumulate(grads []*grid.Complex2D, probeGrad *grid.Complex2D) {
	s := len(e.obj)
	if len(grads) != s {
		panic(fmt.Sprintf("multislice: %d gradient arrays for %d slices", len(grads), s))
	}
	n, win := e.n, e.win
	b := e.psi[s].Data
	for i, g := range grads {
		inter := win.Intersect(g.Bounds)
		for y := inter.Y0; y < inter.Y1; y++ {
			gRow := g.Row(y)[inter.X0-g.Bounds.X0:][:inter.W()]
			off := (y-win.Y0)*n + inter.X0 - win.X0
			psi := e.psi[i].Data[off:][:len(gRow)]
			if i > 0 {
				for x, v := range psi {
					gRow[x] += complex(real(v), -imag(v))
				}
				continue
			}
			for x, v := range b[off:][:len(gRow)] {
				v *= psi[x]
				gRow[x] += complex(real(v), -imag(v))
			}
		}
	}
	// conj(t_0 * b) = conj(t_0) * psi_bar'_0 = dF/d(conj psi_0) = dF/d(conj
	// p) since psi_0 is the probe itself.
	if probeGrad != nil {
		mulWindow(b, n, e.obj[0], win)
		for j, v := range b {
			probeGrad.Data[j] += complex(real(v), -imag(v))
		}
	}
}

func conjAll(x []complex128) {
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
}

// FlopsPerLocation estimates the floating-point operations to evaluate
// one location's loss and gradient: roughly 2 FFTs per slice on the
// forward pass and 2 per slice on the backward pass, each costing
// 5*n^2*log2(n^2), plus element-wise work. Used by the performance
// model, not by the numerics.
func FlopsPerLocation(n, slices int) float64 {
	n2 := float64(n * n)
	fftCost := 5 * n2 * math.Log2(n2)
	perSlice := 4*fftCost + 6*n2
	return float64(slices)*perSlice + 2*fftCost
}
