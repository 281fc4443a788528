package solver

import (
	"fmt"

	"ptychopath/internal/grid"
	"ptychopath/internal/multislice"
)

// Workspace is the per-worker scratch arena of the gradient hot path.
// It bundles everything one reconstruction worker (the stand-in for one
// GPU) needs to evaluate per-location gradients without touching the
// heap: a multislice engine (probe/wavefront buffers plus FFT scratch)
// and, built only for the callers that use them, either one gradient
// accumulation array per object slice sized to the worker's bounds or
// one window of per-location gradient scratch. All three engines —
// Serial, Gradient Decomposition and Halo Voxel Exchange — build exactly
// one Workspace per worker and reuse it for the whole run, which is what
// makes their steady-state gradient kernels allocation-free.
//
// A Workspace is NOT safe for concurrent use; the further goroutines of
// a worker's Pool each own an engine instead.
type Workspace struct {
	// Eng is the wavefield engine; shared scratch for forward model and
	// adjoint.
	Eng *multislice.Engine

	bounds grid.Rect
	slices int
	grads  []*grid.Complex2D // built on first Grads() call
	win    []*grid.Complex2D // n x n each, built on first LossGradWindow call
}

// NewWorkspace builds the per-worker arena for this problem with
// gradient arrays covering bounds (the full image for the serial
// solver, the extended tile for parallel workers). The gradient arrays
// materialize on first use, so callers that only need the engine or the
// window scratch — gradsync and halo ranks — pay nothing for them.
func (p *Problem) NewWorkspace(bounds grid.Rect) *Workspace {
	return &Workspace{Eng: p.NewEngine(), bounds: bounds, slices: p.Slices}
}

// Grads returns the per-slice gradient scratch arrays (one per object
// slice, covering the workspace bounds), building them on first call.
// LossGrad accumulates into them; callers drain them into their
// algorithm state and call ZeroGrads.
func (ws *Workspace) Grads() []*grid.Complex2D {
	if ws.grads == nil {
		ws.grads = make([]*grid.Complex2D, ws.slices)
		for i := range ws.grads {
			ws.grads[i] = grid.NewComplex2D(ws.bounds)
		}
	}
	return ws.grads
}

// ZeroGrads clears the gradient scratch arrays in place.
func (ws *Workspace) ZeroGrads() {
	for _, g := range ws.Grads() {
		g.Zero()
	}
}

// LossGrad evaluates one probe location, accumulating the Wirtinger
// gradient into the workspace arrays, and returns the loss — the
// allocation-free per-location kernel.
func (ws *Workspace) LossGrad(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D) float64 {
	return ws.Eng.LossGrad(slices, win, yAmp, ws.Grads())
}

// LossGradWindow evaluates one probe location into the window scratch —
// one n x n array per slice, re-anchored at win and cleared — and
// returns the loss and that scratch, valid until the next call. Callers
// that apply each location's gradient on its own use it so that only
// the window is cleared and swept, never the worker's whole bounds.
func (ws *Workspace) LossGradWindow(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D) (float64, []*grid.Complex2D) {
	if n := ws.Eng.N(); win.W() != n || win.H() != n {
		panic(fmt.Sprintf("solver: window %v is not %d x %d", win, n, n))
	}
	if ws.win == nil {
		ws.win = make([]*grid.Complex2D, ws.slices)
		for i := range ws.win {
			ws.win[i] = grid.NewComplex2D(win)
		}
	}
	for _, g := range ws.win {
		g.Bounds = win
		g.Zero()
	}
	return ws.Eng.LossGrad(slices, win, yAmp, ws.win), ws.win
}

// MemBytes is what a worker holds: the measurements of the locations
// locs, the buffers of its workspaces as built so far — the engine's,
// and whichever of the gradient arrays and the window scratch have been
// used — and its own object-sized stacks.
func (p *Problem) MemBytes(locs []int, wss []*Workspace, stacks ...[]*grid.Complex2D) int64 {
	var b int64
	for _, li := range locs {
		b += int64(len(p.Meas[li].Data)) * 8
	}
	add := func(arrs []*grid.Complex2D) {
		for _, a := range arrs {
			b += int64(len(a.Data)) * 16
		}
	}
	for _, st := range stacks {
		add(st)
	}
	for _, ws := range wss {
		b += ws.Eng.MemBytes()
		add(ws.grads)
		add(ws.win)
	}
	return b
}
