package jobs

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// tinyProblem builds a small synthetic dataset (16 locations, 8 px
// window) shared by the service tests.
func tinyProblem(t *testing.T) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 4, Rows: 4, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// mustObject reads a job's object through Job.Object and fails the
// test on an error or an empty object, so comparing two objects can
// never pass by comparing nothing.
func mustObject(t *testing.T, j *Job) ([]*grid.Complex2D, int) {
	t.Helper()
	obj, iter, err := j.Object()
	if err != nil {
		t.Fatalf("object of %s: %v", j.ID(), err)
	}
	if len(obj) == 0 || len(obj[0].Data) == 0 {
		t.Fatalf("job %s has no object", j.ID())
	}
	return obj, iter
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitFor polls cond until it holds or the deadline passes.
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

func TestLifecycleDone(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 3})
	j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j.State() == Done })

	info := j.Info(-1)
	if info.Iter != 10 || info.TotalIters != 10 {
		t.Errorf("iter %d/%d, want 10/10", info.Iter, info.TotalIters)
	}
	if len(info.CostHistory) != 10 {
		t.Errorf("cost history length %d, want 10", len(info.CostHistory))
	}
	if info.Error != "" {
		t.Errorf("unexpected error %q", info.Error)
	}
	// The final object is served from the checkpoint file, and the
	// finished job no longer holds its own copy.
	obj, iter := mustObject(t, j)
	if iter != 10 {
		t.Fatalf("object at iter %d, want final object at 10", iter)
	}
	path, ckIter := j.CheckpointPath()
	if ckIter != 10 {
		t.Errorf("checkpoint iter %d, want 10", ckIter)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	var served bytes.Buffer
	if err := dataio.WriteObject(&served, obj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), file) {
		t.Error("object read at Done differs from the checkpoint file")
	}
	j.mu.Lock()
	held := j.snapshot
	j.mu.Unlock()
	if held != nil {
		t.Error("a finished job still holds its object in the heap")
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ptychoserve_jobs_submitted_total 1",
		"ptychoserve_jobs_completed_total 1",
		"ptychoserve_iterations_total 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotOwnership: the service copies an object only where the
// engine keeps mutating it. A preview published from a live OnSnapshot
// stays as it was when the engine moves on; an object handed over for
// good — the engine's result at a terminal state, a grid snapshot
// decoded off the wire — is published and checkpointed as it is.
func TestSnapshotOwnership(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j.State() == Done })
	b := prob.ImageBounds()

	live := phantom.RandomObject(b.W(), b.H(), prob.Slices, 3).Slices
	want := slices.Clone(live[0].Data)
	if err := s.hooks(j).OnSnapshot(4, live); err != nil {
		t.Fatal(err)
	}
	live[0].Data[0] += 1 // the engine moves on
	if snap, iter := mustObject(t, j); iter != 5 || !slices.Equal(snap[0].Data, want) {
		t.Fatalf("preview at iteration %d changed when the engine mutated its live slices", iter)
	}

	owned := phantom.RandomObject(b.W(), b.H(), prob.Slices, 4).Slices
	if err := s.snapshot(j, 6, owned); err != nil {
		t.Fatal(err)
	}
	snap, _ := mustObject(t, j)
	for i := range owned {
		if snap[i] != owned[i] {
			t.Fatalf("slice %d of a handed-over object was copied before it was published", i)
		}
	}
	path, _ := j.CheckpointPath()
	got, err := dataio.ReadObjectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[0].Data, owned[0].Data) {
		t.Fatal("the checkpoint does not hold the handed-over object")
	}
}

func TestParallelAlgorithmsRun(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8})
	for _, alg := range []string{"gd", "hve"} {
		j, err := s.Submit(prob, Params{Algorithm: alg, Iterations: 4, MeshRows: 2, MeshCols: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		waitFor(t, alg+" done", func() bool { return j.State().Terminal() })
		if got := j.State(); got != Done {
			t.Errorf("%s: state %v, err %q", alg, got, j.Info(0).Error)
		}
	}
}

func TestQueueBoundsAndCancelQueued(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the single worker with a job far too long to finish.
	long, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "long job running", func() bool { return long.State() == Running })

	queued, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}

	// Cancelling while queued is immediate and the job never runs.
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if got := queued.State(); got != Cancelled {
		t.Fatalf("queued job state %v, want cancelled", got)
	}
	if err := s.Cancel(queued.ID()); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel: got %v, want ErrFinished", err)
	}

	// The cancelled job freed its queue slot immediately: a new submit
	// fits even though no worker has become free.
	refill, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5})
	if err != nil {
		t.Fatalf("submit after cancelling queued job: %v", err)
	}
	if err := s.Cancel(refill.ID()); err != nil {
		t.Fatal(err)
	}

	// Cancelling the running job interrupts it at an iteration boundary.
	if err := s.Cancel(long.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "long job cancelled", func() bool { return long.State() == Cancelled })
	if iter := long.Info(0).Iter; iter <= 0 || iter >= 1_000_000 {
		t.Errorf("cancelled after %d iterations, want mid-run", iter)
	}
}

func TestCancelResumeMatchesUninterrupted(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, CheckpointEvery: 5})
	const total = 2000
	j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: total, StepSize: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mid-run progress", func() bool { return j.Info(0).Iter >= 20 })
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cancelled", func() bool { return j.State() == Cancelled })
	ck := j.Info(0)
	if ck.Iter >= total {
		t.Fatalf("job ran to completion (%d iters) before cancel; cannot exercise resume", ck.Iter)
	}
	if ck.CheckpointIter != ck.Iter {
		t.Fatalf("cancel checkpoint at iter %d, progress at %d", ck.CheckpointIter, ck.Iter)
	}

	resumed, err := s.Resume(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed done", func() bool { return resumed.State().Terminal() })
	info := resumed.Info(0)
	if resumed.State() != Done {
		t.Fatalf("resumed job %v: %s", resumed.State(), info.Error)
	}
	if info.Iter != total || info.TotalIters != total {
		t.Errorf("resumed progress %d/%d, want %d/%d", info.Iter, info.TotalIters, total, total)
	}
	if info.ResumedFrom != j.ID() {
		t.Errorf("resumed_from %q, want %q", info.ResumedFrom, j.ID())
	}

	// The stitched trajectory (cancel at k, resume k..total) must be
	// bit-identical to an uninterrupted run: batch gradient descent is
	// memoryless and OBJCKv1 round-trips float64 exactly.
	ref, err := solver.Reconstruct(prob, phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices,
		solver.Options{StepSize: 0.01, Iterations: total, Mode: solver.Batch})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := mustObject(t, resumed)
	if len(snap) != len(ref.Slices) {
		t.Fatalf("resumed object has %d slices, uninterrupted %d", len(snap), len(ref.Slices))
	}
	for si, ss := range snap {
		for i, v := range ss.Data {
			if v != ref.Slices[si].Data[i] {
				t.Fatalf("slice %d pixel %d: resumed %v != uninterrupted %v", si, i, v, ref.Slices[si].Data[i])
			}
		}
	}

	// A completed job cannot be resumed again.
	if _, err := s.Resume(resumed.ID()); !errors.Is(err, ErrNotResumable) {
		t.Errorf("resume of done job: got %v, want ErrNotResumable", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Submit(prob, Params{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := s.Submit(prob, Params{Iterations: -1}); err == nil {
		t.Error("negative iterations accepted")
	}
	// What the engine would reject before iteration 0 is rejected at the
	// door — and before the runtime predictor simulates the mesh, so an
	// absurd one costs nothing.
	for name, p := range map[string]Params{
		"negative rounds":        {Algorithm: "gd", RoundsPerIteration: -1},
		"mesh larger than image": {Algorithm: "gd", MeshRows: 4000, MeshCols: 4000},
		"hve tile below halo":    {Algorithm: "hve", MeshRows: 6, MeshCols: 6},
	} {
		start := time.Now()
		if _, err := s.Submit(prob, p); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: got %v, want ErrInvalidParams", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejection took %v", name, d)
		}
	}
	if _, err := s.Resume("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("resume unknown: got %v, want ErrNotFound", err)
	}
	if err := s.Cancel("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: got %v, want ErrNotFound", err)
	}
}

func TestCloseRejectsSubmit(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(prob, Params{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
}
