// Package gradsync implements the paper's primary contribution: parallel
// ptychographic reconstruction by Image Gradient Decomposition.
//
// The reconstruction is tessellated into a mesh of halo-extended tiles,
// one per rank ("GPU"). Each rank computes image gradients only for its
// OWN probe locations (no redundant locations, unlike Halo Voxel
// Exchange) and accumulates them into a per-rank gradient buffer. The
// buffers are then synchronized with four directional passes (Sec. IV):
//
//	vertical forward   — each tile row ADDS its buffer overlap into the
//	                     row below, top to bottom;
//	vertical backward  — each row REPLACES the row above's overlap with
//	                     its accumulated values, bottom to top;
//	horizontal forward/backward — the same along tile rows.
//
// The chained add-then-replace sweeps propagate contributions between
// arbitrarily distant tiles (the paper's high-overlap case, Fig 2(f))
// because consecutive extended tiles always nest their overlaps. After
// the four passes every rank's buffer equals the GLOBAL image gradient
// of Eqn. (2) restricted to its extended tile — a property the tests
// verify against the serial reference to machine precision.
//
// Communication uses eager (never-blocking) sends with no global
// barriers; a rank starts its horizontal pass as soon as its own vertical
// traffic is done, which is exactly the paper's Asynchronous Pipelining
// for Parallel Passes (APPP, Fig 5). Setting Options.DisableAPPP inserts
// world barriers between passes to emulate the "w/o APPP" ablation of
// Fig 7(b).
package gradsync

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// Mode selects the update rule.
type Mode int

const (
	// ModeBatch applies only the synchronized accumulated gradients
	// (Alg 1 without line 8). With one communication round per
	// iteration this is mathematically identical to serial batch
	// gradient descent — the equivalence tests rely on it.
	ModeBatch Mode = iota
	// ModeFaithful follows Alg 1 literally: an immediate local update
	// after every probe location plus the accumulated-buffer update at
	// every communication round.
	ModeFaithful
)

// Options configures a parallel reconstruction.
type Options struct {
	Mesh *tiling.Mesh
	Mode Mode
	// StepSize is the gradient-descent step alpha.
	StepSize float64
	// Iterations is the number of full cycles through all locations.
	Iterations int
	// RoundsPerIteration is how many communication rounds (sets of
	// four directional passes) run per iteration — the paper's
	// communication-frequency parameter T expressed as a count.
	// 1 (default when 0) = once per iteration; Fig 9 compares 1, 2 and
	// "every location".
	RoundsPerIteration int
	// DisableAPPP inserts global barriers between the directional
	// passes, emulating the non-pipelined baseline of Fig 7(b).
	DisableAPPP bool
	// Timeout bounds every blocking communication (0 = default).
	Timeout time.Duration
	// IntraWorkers is the number of goroutines each rank uses to
	// evaluate its locations — the functional stand-in for a GPU's
	// internal parallelism. Only ModeBatch supports it (per-location
	// sequential updates are order-dependent by definition); values
	// <= 1 mean single-threaded. Gradients are added into AccBuf in
	// location order, so every value gives the same result bit for bit.
	IntraWorkers int
	// StopBelowCost, when positive, stops the reconstruction early once
	// the global cost falls below it. The decision uses the all-reduced
	// cost, so every rank stops at the same iteration (no deadlock).
	StopBelowCost float64
	// OnIteration, when non-nil, is invoked on rank 0 with the global
	// cost after each iteration.
	OnIteration func(iter int, cost float64)
	// OnRankStats, when non-nil, is invoked on EVERY rank after each
	// iteration with that iteration's compute and communication time
	// deltas in nanoseconds — the per-phase timing feed for span
	// tracing and elastic scheduling. Unlike OnIteration it fires on
	// all ranks concurrently (in-process runs share one Options), so
	// the callback must be safe for concurrent use. It runs outside
	// the per-location hot loop: once per rank per iteration.
	OnRankStats func(rank, iter int, computeNS, commNS int64)
	// Ctx, when non-nil, cancels the run at iteration boundaries. The
	// decision is collective — every rank contributes its view of
	// Ctx.Err() to an allreduce so all ranks stop at the same iteration
	// (no deadlocked exchanges). Reconstruct then returns the PARTIAL
	// stitched Result together with Ctx's error.
	Ctx context.Context
	// SnapshotEvery, together with OnSnapshot, emits periodic object
	// snapshots: after every SnapshotEvery-th iteration the tiles are
	// stitched and OnSnapshot runs on rank 0 with the 0-based iteration
	// index and the stitched slices (freshly allocated — safe to
	// retain). A non-nil error aborts the run on every rank.
	SnapshotEvery int
	OnSnapshot    func(iter int, slices []*grid.Complex2D) error
}

func (o *Options) validate(prob *solver.Problem) error {
	if o.Mesh == nil {
		return fmt.Errorf("gradsync: nil mesh")
	}
	if o.StepSize <= 0 {
		return fmt.Errorf("gradsync: step size must be positive, got %g", o.StepSize)
	}
	if o.Iterations <= 0 {
		return fmt.Errorf("gradsync: iterations must be positive, got %d", o.Iterations)
	}
	if o.RoundsPerIteration < 0 {
		return fmt.Errorf("gradsync: rounds per iteration must be >= 0, got %d", o.RoundsPerIteration)
	}
	if o.IntraWorkers > 1 && o.Mode == ModeFaithful {
		return fmt.Errorf("gradsync: IntraWorkers requires ModeBatch (faithful Alg 1 updates are order-dependent)")
	}
	if err := prob.Validate(); err != nil {
		return err
	}
	if !o.Mesh.Image.Eq(prob.ImageBounds()) {
		return fmt.Errorf("gradsync: mesh image %v != problem image %v",
			o.Mesh.Image, prob.ImageBounds())
	}
	return nil
}

// Result carries the stitched reconstruction and run statistics; the
// type is shared with the Halo Voxel Exchange baseline.
type Result = collective.Result

// message tags for the four directional passes.
const (
	tagVF = 1
	tagVB = 2
	tagHF = 3
	tagHB = 4
)

// worker is the per-rank state. All gradient scratch lives in ws and
// the location pool's engines, so the per-location hot loop is
// allocation-free in steady state.
type worker struct {
	comm   simmpi.Transport
	mesh   *tiling.Mesh
	prob   *solver.Problem
	opt    *Options
	r, c   int
	ext    grid.Rect
	slices []*grid.Complex2D // reconstruction on the extended tile
	acc    []*grid.Complex2D // accumulated gradient buffer (AccBuf_k)
	packed []complex128      // outgoing payload scratch, grown once to the largest overlap
	ws     *solver.Workspace // engine + faithful mode's window of gradient scratch
	pool   *solver.Pool      // batch mode's sweep of owned locations into AccBuf
	owned  []int

	computeNS int64 // wall-clock spent in gradient computation
	commNS    int64 // wall-clock spent in the directional passes
}

func newWorker(comm simmpi.Transport, prob *solver.Problem, opt *Options,
	owned [][]int, init []*grid.Complex2D) *worker {
	m := opt.Mesh
	r, c := m.RowCol(comm.Rank())
	ext := m.Extended(r, c)
	w := &worker{
		comm: comm, mesh: m, prob: prob, opt: opt,
		r: r, c: c, ext: ext,
		ws:    prob.NewWorkspace(ext),
		owned: owned[comm.Rank()],
	}
	w.slices = make([]*grid.Complex2D, prob.Slices)
	w.acc = make([]*grid.Complex2D, prob.Slices)
	for s := 0; s < prob.Slices; s++ {
		w.slices[s] = grid.NewComplex2D(ext)
		w.slices[s].CopyRegion(init[s], ext)
		w.acc[s] = grid.NewComplex2D(ext)
	}
	w.pool = prob.NewPool(w.ws.Eng, max(opt.IntraWorkers, 1), w.owned, w.slices, w.acc, nil)
	return w
}

// close ends the location pool's goroutines. Must be called when the
// rank is done.
func (w *worker) close() { w.pool.Close() }

// memBytes is what the rank's buffers hold: slices, AccBuf, the
// measurements it owns and its workspace — the engine and, in faithful
// mode, one window of gradient scratch — plus, with IntraWorkers, the
// engine of each further goroutine but its shared probe.
func (w *worker) memBytes() int64 {
	return w.prob.MemBytes(w.owned, []*solver.Workspace{w.ws}, w.slices, w.acc) + w.pool.MemBytes()
}

// unpackAdd adds the payload into region r of each buffer.
func unpackAdd(arrs []*grid.Complex2D, region grid.Rect, data []complex128) error {
	if len(data) != region.Area()*len(arrs) {
		return fmt.Errorf("gradsync: payload %d for region %v x %d slices",
			len(data), region, len(arrs))
	}
	k := 0
	for _, a := range arrs {
		for y := region.Y0; y < region.Y1; y++ {
			row := a.Row(y)
			x0 := region.X0 - a.Bounds.X0
			for x := 0; x < region.W(); x++ {
				row[x0+x] += data[k]
				k++
			}
		}
	}
	return nil
}

// recvOverlap receives one pass message and folds it into region of the
// accumulation buffers with unpack (add on the forward sweeps, replace
// on the backward ones), then hands the payload back to the transport.
func (w *worker) recvOverlap(src, tag int, region grid.Rect,
	unpack func([]*grid.Complex2D, grid.Rect, []complex128) error) error {
	if region.Empty() {
		return nil
	}
	data, err := w.comm.Recv(src, tag)
	if err != nil {
		return err
	}
	err = unpack(w.acc, region, data)
	w.comm.Release(data)
	return err
}

// sendOverlap sends region of the accumulation buffers, packed into the
// worker's scratch: Send copies, so the scratch is free again at once.
func (w *worker) sendOverlap(dst, tag int, region grid.Rect) {
	if region.Empty() {
		return
	}
	w.packed = collective.PackRegion(w.packed, w.acc, region)
	w.comm.Send(dst, tag, w.packed)
}

// runPasses executes the four directional passes on the accumulation
// buffers (Sec. IV + Fig 5). After it returns, w.acc holds the global
// gradient restricted to the extended tile.
func (w *worker) runPasses() error {
	m := w.mesh
	barrier := func() error {
		if w.opt.DisableAPPP {
			return w.comm.Barrier()
		}
		return nil
	}
	up, down := w.r > 0, w.r < m.Rows-1
	left, right := w.c > 0, w.c < m.Cols-1

	// Vertical forward: add downward along the tile column.
	if up {
		if err := w.recvOverlap(m.Rank(w.r-1, w.c), tagVF, m.VerticalOverlap(w.r-1, w.c), unpackAdd); err != nil {
			return err
		}
	}
	if down {
		w.sendOverlap(m.Rank(w.r+1, w.c), tagVF, m.VerticalOverlap(w.r, w.c))
	}
	if err := barrier(); err != nil {
		return err
	}

	// Vertical backward: replace upward.
	if down {
		if err := w.recvOverlap(m.Rank(w.r+1, w.c), tagVB, m.VerticalOverlap(w.r, w.c), collective.UnpackRegion); err != nil {
			return err
		}
	}
	if up {
		w.sendOverlap(m.Rank(w.r-1, w.c), tagVB, m.VerticalOverlap(w.r-1, w.c))
	}
	if err := barrier(); err != nil {
		return err
	}

	// Horizontal forward: add rightward along the tile row. With APPP a
	// rank enters this pass as soon as its own vertical traffic is done
	// (cross-direction pipelining, Fig 5).
	if left {
		if err := w.recvOverlap(m.Rank(w.r, w.c-1), tagHF, m.HorizontalOverlap(w.r, w.c-1), unpackAdd); err != nil {
			return err
		}
	}
	if right {
		w.sendOverlap(m.Rank(w.r, w.c+1), tagHF, m.HorizontalOverlap(w.r, w.c))
	}
	if err := barrier(); err != nil {
		return err
	}

	// Horizontal backward: replace leftward.
	if right {
		if err := w.recvOverlap(m.Rank(w.r, w.c+1), tagHB, m.HorizontalOverlap(w.r, w.c), collective.UnpackRegion); err != nil {
			return err
		}
	}
	if left {
		w.sendOverlap(m.Rank(w.r, w.c-1), tagHB, m.HorizontalOverlap(w.r, w.c-1))
	}
	return barrier()
}

// applyAcc performs V_k <- V_k - alpha * AccBuf_k and clears the buffer
// (Alg 1 lines 14-16).
func (w *worker) applyAcc() {
	step := complex(w.opt.StepSize, 0)
	for s := range w.slices {
		w.slices[s].AddScaled(w.acc[s], -step)
		w.acc[s].Zero()
	}
}

// iteration runs one full cycle through the rank's locations with the
// configured number of communication rounds, returning the local cost.
func (w *worker) iteration() (float64, error) {
	rounds := w.opt.RoundsPerIteration
	if rounds <= 0 {
		rounds = 1
	}
	var cost float64
	n := len(w.owned)
	done := 0
	for round := 0; round < rounds; round++ {
		computeStart := time.Now()
		// This round covers owned locations [done, upto).
		upto := (round + 1) * n / rounds
		if w.opt.Mode == ModeFaithful {
			for ; done < upto; done++ {
				cost += w.location(done)
			}
		} else {
			cost = w.pool.Sweep(done, upto, cost)
			done = upto
		}
		w.computeNS += time.Since(computeStart).Nanoseconds()
		commStart := time.Now()
		if err := w.runPasses(); err != nil {
			return 0, err
		}
		w.commNS += time.Since(commStart).Nanoseconds()
		w.applyAcc()
	}
	return cost, nil
}

// location is one step of faithful mode: it evaluates owned location
// i, adds its gradient into AccBuf (Alg 1 line 7) and descends the
// slices at once (line 8), returning its loss. The gradient goes
// through the window scratch, so both updates touch only the window's
// part of the tile. Batch mode sweeps its locations through the pool,
// straight into AccBuf.
func (w *worker) location(i int) float64 {
	li := w.owned[i]
	win := w.prob.Pattern.Locations[li].Window(w.prob.WindowN)
	f, g := w.ws.LossGradWindow(w.slices, win, w.prob.Meas[li])
	for s := range g {
		w.acc[s].AddScaledRegion(g[s], win, 1)
		w.slices[s].AddScaledRegion(g[s], win, -complex(w.opt.StepSize, 0))
	}
	return f
}

// RunRank executes one rank of the Gradient Decomposition
// reconstruction against an arbitrary transport endpoint. Every rank of
// comm's world must call RunRank with identical prob, init and opt —
// Reconstruct does so over an in-process world, and the distributed
// grid runs the same function in worker processes over TCP; the results
// are bit-identical because this is, literally, the same code.
//
// init provides the initial object slices on the full image bounds; it
// is not mutated. The returned outcome's Slices live on this rank's
// extended tile.
func RunRank(comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D, opt Options) (*collective.RankOutcome, error) {
	if err := opt.validate(prob); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("gradsync: %d initial slices, want %d", len(init), prob.Slices)
	}
	if comm.Size() != opt.Mesh.NumTiles() {
		return nil, fmt.Errorf("gradsync: world size %d != mesh tiles %d", comm.Size(), opt.Mesh.NumTiles())
	}
	// Location assignment is deterministic from pattern + mesh, so every
	// rank computes the identical partition locally — no distribution
	// step, no coordinator round-trip.
	owned := opt.Mesh.AssignLocations(prob.Pattern)

	snaps := collective.NewSnapshots(opt.Mesh, opt.SnapshotEvery, opt.OnSnapshot)

	w := newWorker(comm, prob, &opt, owned, init)
	defer w.close()
	out := &collective.RankOutcome{
		Locations: len(w.owned),
		Owned:     len(w.owned),
	}
	hist := make([]float64, 0, opt.Iterations)
	var prevComputeNS, prevCommNS int64
	for iter := 0; iter < opt.Iterations; iter++ {
		local, err := w.iteration()
		if err != nil {
			return nil, fmt.Errorf("rank %d iteration %d: %w", comm.Rank(), iter, err)
		}
		global, err := comm.AllreduceSum(local)
		if err != nil {
			return nil, err
		}
		hist = append(hist, global)
		if opt.OnRankStats != nil {
			// w.computeNS/commNS are cumulative; report this
			// iteration's delta so the callback sees per-phase time
			// per iteration, not a running total.
			opt.OnRankStats(comm.Rank(), iter,
				w.computeNS-prevComputeNS, w.commNS-prevCommNS)
			prevComputeNS, prevCommNS = w.computeNS, w.commNS
		}
		if comm.Rank() == 0 && opt.OnIteration != nil {
			opt.OnIteration(iter, global)
		}
		if snaps.Due(iter) {
			if err := snaps.Run(comm, w.slices, iter); err != nil {
				return nil, fmt.Errorf("gradsync: snapshot at iteration %d: %w", iter, err)
			}
		}
		// Collective early stop: the all-reduced cost is identical
		// on every rank, so all ranks break together.
		if opt.StopBelowCost > 0 && global < opt.StopBelowCost {
			break
		}
		if stop, err := collective.Cancelled(comm, opt.Ctx); err != nil {
			return nil, err
		} else if stop {
			out.Cancelled = true
			break
		}
	}
	out.Slices = w.slices
	out.CostHistory = hist
	out.MemBytes = w.memBytes()
	out.ComputeNS = w.computeNS
	out.CommNS = w.commNS
	out.SentBytes = comm.SentBytes()
	out.SentMessages = comm.SentMessages()
	return out, nil
}

// Reconstruct runs the parallel Gradient Decomposition reconstruction
// over an in-process world (one goroutine per rank). init provides the
// initial object slices on the full image bounds (typically vacuum); it
// is not mutated.
func Reconstruct(prob *solver.Problem, init []*grid.Complex2D, opt Options) (*Result, error) {
	if err := opt.validate(prob); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("gradsync: %d initial slices, want %d", len(init), prob.Slices)
	}
	return collective.RunWorld(opt.Ctx, opt.Mesh, opt.Timeout, func(comm *simmpi.Comm) (*collective.RankOutcome, error) {
		return RunRank(comm, prob, init, opt)
	})
}

// ParallelGradient computes the total image gradient of Eqn. (2) via the
// decomposition: each rank computes gradients for its own locations on
// its extended tile, the four passes synchronize the buffers, and the
// interiors are stitched. It returns the stitched gradient and every
// rank's post-pass buffer (on extended bounds) so tests can verify the
// stronger invariant that each buffer equals the global gradient
// restricted to its extended tile.
func ParallelGradient(prob *solver.Problem, full []*grid.Complex2D, mesh *tiling.Mesh,
	disableAPPP bool, timeout time.Duration) ([]*grid.Complex2D, [][]*grid.Complex2D, error) {
	opt := Options{
		Mesh: mesh, Mode: ModeBatch, StepSize: 1, Iterations: 1,
		RoundsPerIteration: 1, DisableAPPP: disableAPPP, Timeout: timeout,
	}
	if err := opt.validate(prob); err != nil {
		return nil, nil, err
	}
	owned := mesh.AssignLocations(prob.Pattern)
	ranks := mesh.NumTiles()
	buffers := make([][]*grid.Complex2D, ranks)
	err := simmpi.Run(ranks, timeout, func(comm *simmpi.Comm) error {
		w := newWorker(comm, prob, &opt, owned, full)
		defer w.close()
		w.pool.Sweep(0, len(w.owned), 0)
		if err := w.runPasses(); err != nil {
			return err
		}
		buffers[comm.Rank()] = w.acc
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return mesh.StitchSlices(buffers), buffers, nil
}
