package stream

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/gradsync"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// acquisition builds the synthetic dataset the tests replay as a live
// feed: 16 locations, 8 px window.
func acquisition(t testing.TB, slices int) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 4, Rows: 4, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, slices, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// capture collects engine callbacks across goroutines.
type capture struct {
	mu     sync.Mutex
	iters  int
	folds  int
	active int
	snaps  []snap
}

type snap struct {
	iter   int // 0-based completed iteration index
	active int // active-set size when the snapshot was taken
	slices []*grid.Complex2D
}

func (c *capture) options(base Options) Options {
	base.Hooks.OnIteration = func(int, float64) {
		c.mu.Lock()
		c.iters++
		c.mu.Unlock()
	}
	base.OnFold = func(_, _, active int) {
		c.mu.Lock()
		c.folds++
		c.active = active
		c.mu.Unlock()
	}
	base.Spec.SnapshotEvery = 1
	base.Hooks.OnSnapshot = func(iter int, slices []*grid.Complex2D) error {
		cp := make([]*grid.Complex2D, len(slices))
		for i, s := range slices {
			cp[i] = s.Clone()
		}
		c.mu.Lock()
		c.snaps = append(c.snaps, snap{iter: iter, active: c.active, slices: cp})
		c.mu.Unlock()
		return nil
	}
	return base
}

func (c *capture) foldCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.folds
}

func (c *capture) iterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.iters
}

// feed streams the dataset into in as three chunks, interleaving with
// live iterations: after each chunk it waits for the fold and then for
// at least two more iterations over the enlarged active set, so the
// engine demonstrably reconstructs WHILE frames arrive.
func feed(t *testing.T, in *Ingest, frames []dataio.Frame, c *capture) {
	t.Helper()
	bounds := []int{0, 6, 11, len(frames)}
	for i := 0; i < 3; i++ {
		if _, err := in.Append(frames[bounds[i]:bounds[i+1]]); err != nil {
			t.Errorf("chunk %d: %v", i, err)
			return
		}
		want := i + 1
		waitFor(t, "fold", func() bool { return c.foldCount() >= want })
		base := c.iterCount()
		waitFor(t, "post-fold iterations", func() bool { return c.iterCount() >= base+2 })
	}
	in.CloseEOF()
}

// runCapstone drives the acceptance scenario for one algorithm: a
// dataset streamed in 3 chunks mid-run, the stream closed, the job
// finishing its epochs — and the result bit-identical to a batch run
// of the same algorithm warm-started from a mid-stream checkpoint
// (round-tripped through OBJCKv1, exactly as the job service would).
func runCapstone(t *testing.T, alg string) {
	prob := acquisition(t, 2)
	hdr := dataio.HeaderFromProblem(prob)
	frames := dataio.FramesFromProblem(prob)
	in := NewIngest(0)
	c := &capture{}
	const step = 0.01
	const tail = 12

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(hdr, in, c.options(Options{Spec: engine.Spec{
			Algorithm: alg, StepSize: step, Iterations: tail,
			MeshRows: 2, MeshCols: 2, Timeout: 2 * time.Minute,
		}}))
		done <- outcome{res, err}
	}()
	feed(t, in, frames, c)
	out := <-done
	if out.err != nil {
		t.Fatalf("streaming run: %v", out.err)
	}
	res := out.res

	if res.Frames != len(frames) {
		t.Errorf("folded %d frames, want %d", res.Frames, len(frames))
	}
	if res.Folds < 3 {
		t.Errorf("only %d folds; the 3 chunks should fold separately", res.Folds)
	}
	if res.Iterations <= tail {
		t.Errorf("%d total iterations with a %d-iteration tail: nothing ran mid-stream", res.Iterations, tail)
	}

	// Pick the FIRST checkpoint taken after the active set became
	// complete — a genuinely mid-stream state, many iterations before
	// the end — and round-trip it through OBJCKv1.
	var ck *snap
	partial := 0
	for i := range c.snaps {
		if c.snaps[i].active == len(frames) {
			ck = &c.snaps[i]
			break
		}
		partial++
	}
	if ck == nil {
		t.Fatal("no snapshot saw the complete active set")
	}
	if partial == 0 {
		t.Error("no snapshot over a partial active set: frames did not arrive mid-run")
	}
	var buf bytes.Buffer
	if err := dataio.WriteObject(&buf, ck.slices); err != nil {
		t.Fatal(err)
	}
	warm, err := dataio.ReadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Batch run of the SAME algorithm from the checkpoint, for the
	// remaining iterations.
	remaining := res.Iterations - (ck.iter + 1)
	if remaining <= 0 {
		t.Fatalf("checkpoint at iteration %d leaves no iterations to replay", ck.iter)
	}
	var ref []*grid.Complex2D
	switch alg {
	case "serial":
		r, err := solver.Reconstruct(prob, warm, solver.Options{
			StepSize: step, Iterations: remaining, Mode: solver.Batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref = r.Slices
	case "gd":
		m, err := tiling.NewMesh(prob.ImageBounds(), 2, 2, tiling.HaloForWindow(prob.WindowN))
		if err != nil {
			t.Fatal(err)
		}
		r, err := gradsync.Reconstruct(prob, warm, gradsync.Options{
			Mesh: m, Mode: gradsync.ModeBatch, StepSize: step,
			Iterations: remaining, Timeout: 2 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref = r.Slices
	}
	for s := range ref {
		for i, v := range ref[s].Data {
			if v != res.Slices[s].Data[i] {
				t.Fatalf("%s slice %d pixel %d: batch-from-checkpoint %v != streamed %v",
					alg, s, i, v, res.Slices[s].Data[i])
			}
		}
	}
}

// TestStreamingBitIdenticalToBatchWarmStart is the capstone: the
// streaming world inherits the batch world's exact-resume guarantee.
func TestStreamingBitIdenticalToBatchWarmStart(t *testing.T) {
	runCapstone(t, "serial")
}

// TestStreamingGDBitIdentical extends the capstone to the parallel
// Gradient Decomposition engine with per-epoch tile re-partitioning.
func TestStreamingGDBitIdentical(t *testing.T) {
	runCapstone(t, "gd")
}

func TestIngestBackpressure(t *testing.T) {
	in := NewIngest(4)
	prob := acquisition(t, 1)
	frames := dataio.FramesFromProblem(prob)

	// A chunk bigger than the whole buffer is rejected with the
	// NON-retryable error: 429-style backoff could never succeed.
	if _, err := in.Append(frames[:5]); !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("oversized chunk: got %v, want ErrChunkTooLarge", err)
	}
	if total, err := in.Append(frames[:3]); err != nil || total != 3 {
		t.Fatalf("first append: total %d, err %v", total, err)
	}
	// All-or-nothing: 3 buffered + 2 arriving > 4.
	if _, err := in.Append(frames[3:5]); !errors.Is(err, ErrIngestFull) {
		t.Fatalf("overflow append: got %v, want ErrIngestFull", err)
	}
	if in.Pending() != 3 || in.Total() != 3 {
		t.Fatalf("rejected chunk mutated the buffer: pending %d total %d", in.Pending(), in.Total())
	}
	if got, eof := in.poll(); len(got) != 3 || eof {
		t.Fatalf("poll: %d frames, eof %v", len(got), eof)
	}
	// Room again after the fold.
	if total, err := in.Append(frames[3:5]); err != nil || total != 5 {
		t.Fatalf("append after drain: total %d, err %v", total, err)
	}
	in.CloseEOF()
	if _, err := in.Append(frames[5:6]); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("append after EOF: got %v, want ErrStreamClosed", err)
	}
	if got, eof := in.poll(); len(got) != 2 || !eof {
		t.Fatalf("final poll: %d frames, eof %v (buffered frames must survive EOF)", len(got), eof)
	}
}

func TestRunEmptyStream(t *testing.T) {
	prob := acquisition(t, 1)
	in := NewIngest(0)
	in.CloseEOF()
	if _, err := Run(dataio.HeaderFromProblem(prob), in, Options{}); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("empty stream: got %v, want ErrNoFrames", err)
	}
}

func TestRunCancelledWhileWaiting(t *testing.T) {
	prob := acquisition(t, 1)
	in := NewIngest(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(dataio.HeaderFromProblem(prob), in, Options{Hooks: engine.Hooks{Ctx: ctx}})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not wake the engine waiting for frames")
	}
}

func TestRunIterationBudget(t *testing.T) {
	prob := acquisition(t, 1)
	in := NewIngest(0)
	if _, err := in.Append(dataio.FramesFromProblem(prob)[:4]); err != nil {
		t.Fatal(err)
	}
	// The stream never closes: the budget must stop the spin.
	res, err := Run(dataio.HeaderFromProblem(prob), in, Options{MaxIterations: 3})
	if !errors.Is(err, ErrIterationBudget) {
		t.Fatalf("got %v, want ErrIterationBudget", err)
	}
	if res == nil || res.Iterations != 3 {
		t.Fatalf("budgeted run result: %+v", res)
	}
	if res.Slices == nil {
		t.Fatal("budgeted run returned no checkpointable object")
	}
}

func TestRunValidation(t *testing.T) {
	prob := acquisition(t, 1)
	hdr := dataio.HeaderFromProblem(prob)
	in := NewIngest(0)
	if _, err := Run(hdr, in, Options{Spec: engine.Spec{Algorithm: "hve"}}); err == nil {
		t.Error("hve accepted (unsupported for streaming)")
	}
	if _, err := Run(hdr, in, Options{Spec: engine.Spec{StepSize: -1}}); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := Run(hdr, in, Options{Spec: engine.Spec{Iterations: -2}}); err == nil {
		t.Error("negative tail accepted")
	}
	if _, err := Run(hdr, nil, Options{}); err == nil {
		t.Error("nil ingest accepted")
	}
	bad := &dataio.StreamHeader{WindowN: -1}
	if _, err := Run(bad, in, Options{}); err == nil {
		t.Error("invalid header accepted")
	}
}
