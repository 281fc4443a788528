package solver

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ptychopath/internal/grid"
	"ptychopath/internal/multislice"
)

// Pool evaluates a run's probe locations on several goroutines and adds
// their gradients and losses into one set of arrays strictly in list
// order, so every worker count gives the one-goroutine result bit for
// bit. Member 0 is the caller's engine and runs on the calling
// goroutine; each other member is a goroutine with an engine of its own
// (sharing member 0's probe) and no image- or tile-sized array, alive
// until Close. A member claims the next location, evaluates it, waits
// (yielding) for its turn, adds it, then claims again; a steady-state
// sweep allocates nothing.
type Pool struct {
	prob          *Problem
	locs          []int // the run's list; nil: entry k is location k
	slices, grads []*grid.Complex2D
	probeGrad     *grid.Complex2D
	engs          []*multislice.Engine
	wake          chan struct{} // one token per helper a sweep wakes
	done          sync.WaitGroup

	// The sweep in flight, set before the tokens go out.
	hi         int
	next, turn atomic.Int64
	cost       float64 // written only by the member whose turn it is
}

// NewPool builds the location pool of one run with workers members (0
// means GOMAXPROCS), eng being member 0. A sweep evaluates entries of
// locs (nil: every location of the problem) and adds into grads (one
// array per slice) and, when probeGrad is not nil, the probe gradient.
// Close it when the run ends.
func (p *Problem) NewPool(eng *multislice.Engine, workers int, locs []int, slices, grads []*grid.Complex2D, probeGrad *grid.Complex2D) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := &Pool{prob: p, locs: locs, slices: slices, grads: grads, probeGrad: probeGrad, engs: []*multislice.Engine{eng}}
	if workers > 1 {
		pl.wake = make(chan struct{}, workers-1)
	}
	for range workers - 1 {
		e := eng.Helper()
		e.Reserve(p.Slices) // MemBytes counts it whether or not it gets a location
		pl.engs = append(pl.engs, e)
		go pl.member(e, pl.wake)
	}
	return pl
}

// member is a helper goroutine: one sweep's work per token, until wake
// is closed.
func (pl *Pool) member(e *multislice.Engine, wake <-chan struct{}) {
	for range wake {
		pl.work(e)
		pl.done.Done()
	}
	pl.done.Done()
}

// Sweep evaluates entries lo..hi-1 of the run's list and adds each one's
// gradient, and its loss into cost, in list order. It returns the cost.
func (pl *Pool) Sweep(lo, hi int, cost float64) float64 {
	pl.hi, pl.cost = hi, cost
	pl.next.Store(int64(lo))
	pl.turn.Store(int64(lo))
	helpers := max(min(len(pl.engs), hi-lo)-1, 0)
	pl.done.Add(helpers)
	for range helpers {
		pl.wake <- struct{}{}
	}
	pl.work(pl.engs[0])
	pl.done.Wait()
	return pl.cost
}

// work is one member's part of a sweep.
func (pl *Pool) work(e *multislice.Engine) {
	for k := int(pl.next.Add(1)) - 1; k < pl.hi; k = int(pl.next.Add(1)) - 1 {
		li := k
		if pl.locs != nil {
			li = pl.locs[k]
		}
		f := e.Evaluate(pl.slices, pl.prob.Pattern.Locations[li].Window(pl.prob.WindowN), pl.prob.Meas[li])
		for pl.turn.Load() != int64(k) {
			runtime.Gosched()
		}
		e.Accumulate(pl.grads, pl.probeGrad)
		pl.cost += f
		pl.turn.Store(int64(k + 1))
	}
}

// SetProbe hands every member's engine the probe p.
func (pl *Pool) SetProbe(p *grid.Complex2D) {
	for _, e := range pl.engs {
		e.SetProbe(p)
	}
}

// MemBytes is what the helpers' engines hold beyond member 0's, which
// is the caller's: all but the probe.
func (pl *Pool) MemBytes() int64 {
	var b int64
	for _, e := range pl.engs[1:] {
		b += e.MemBytes() - int64(len(e.Probe().Data))*16
	}
	return b
}

// Close ends the helper goroutines and waits for them to exit. It must
// not run during a sweep.
func (pl *Pool) Close() {
	if pl.wake == nil {
		return
	}
	pl.done.Add(len(pl.engs) - 1)
	close(pl.wake)
	pl.wake = nil
	pl.done.Wait()
}
