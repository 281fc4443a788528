package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/gridworker"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
)

// startGridWorkers launches n worker endpoints (goroutines speaking the
// real TCP transport over loopback — functionally identical to n
// ptychoworker processes) and returns their individual kill switches.
func startGridWorkers(t *testing.T, s *Service, n int) []context.CancelFunc {
	t.Helper()
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		t.Cleanup(cancel)
		go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: fmt.Sprintf("w%d", i)})
	}
	waitFor(t, "grid workers registered", func() bool {
		return len(s.GridWorkers()) == n
	})
	return cancels
}

// TestGridBitIdentical is the capstone: the same gd job run locally
// (in-process goroutine world) and on a 4-rank loopback-TCP grid must
// produce byte-for-byte identical final checkpoints and identical cost
// histories — the unmodified engine over a different transport.
func TestGridBitIdentical(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 2, QueueDepth: 8, CheckpointEvery: 3,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	startGridWorkers(t, s, 4)

	params := Params{Algorithm: "gd", Iterations: 8, StepSize: 0.02, MeshRows: 2, MeshCols: 2}
	local, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	gp := params
	gp.Grid = true
	dist, err := s.Submit(prob, gp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "local job done", func() bool { return local.State() == Done })
	waitFor(t, "grid job done", func() bool { return dist.State() == Done })

	li, gi := local.Info(-1), dist.Info(-1)
	if gi.Error != "" {
		t.Fatalf("grid job error: %s", gi.Error)
	}
	if !gi.Grid {
		t.Fatal("grid job not marked as grid in Info")
	}
	if len(li.CostHistory) != 8 || len(gi.CostHistory) != 8 {
		t.Fatalf("history lengths %d / %d, want 8", len(li.CostHistory), len(gi.CostHistory))
	}
	for i := range li.CostHistory {
		if li.CostHistory[i] != gi.CostHistory[i] {
			t.Fatalf("iteration %d cost: local %.17g, grid %.17g (not bit-identical)",
				i, li.CostHistory[i], gi.CostHistory[i])
		}
	}

	localCk, localIter := local.CheckpointPath()
	gridCk, gridIter := dist.CheckpointPath()
	if localIter != 8 || gridIter != 8 {
		t.Fatalf("checkpoint iters %d / %d, want 8", localIter, gridIter)
	}
	lb, err := os.ReadFile(localCk)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(gridCk)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb) == 0 || string(lb) != string(gb) {
		t.Fatalf("final checkpoints differ: local %d bytes, grid %d bytes", len(lb), len(gb))
	}

	if s.grid.SessionsStarted() != 1 || s.grid.BytesRouted() == 0 {
		t.Fatalf("hub stats: %d sessions, %d bytes routed",
			s.grid.SessionsStarted(), s.grid.BytesRouted())
	}
}

// TestGridShardsSixteenRanks is the memory half of the capstone, on a
// 4x4 mesh: every one of the 16 ranks is sent its own measurements and
// the dataset's opening — within 20 % — and nothing of the other
// fifteen shares, and the stitched result is still the in-process one.
// A vacuum start sends no initial object at all (each rank builds its
// own tile); a warm start adds the rank's own tile of it, and only that.
func TestGridShardsSixteenRanks(t *testing.T) {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 12, Rows: 12, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 1), WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		init []*grid.Complex2D
	}{
		{"vacuum", nil},
		{"warm", phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 7).Slices},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSixteenRankShares(t, prob, tc.init) })
	}
}

// checkSixteenRankShares runs one 16-rank grid job from init and checks
// its object and what each rank was sent.
func checkSixteenRankShares(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) {
	const ranks = 16
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: "w", Ranks: ranks})
	waitFor(t, "grid workers registered", func() bool { return len(s.GridWorkers()) == ranks })

	params := Params{Algorithm: "gd", Iterations: 2, StepSize: 0.02, MeshRows: 4, MeshCols: 4, Grid: true,
		InitialObject: init}
	j, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "grid job done", func() bool { return j.State().Terminal() })
	if info := j.Info(0); info.State != Done.String() {
		t.Fatalf("grid job %s: %s", info.State, info.Error)
	}

	// The same run, rank by rank in this process: the reference object,
	// and what each rank is sent over its directional passes.
	spec := params.spec()
	spec.Timeout = 30 * time.Second
	outs := make([]*collective.RankOutcome, ranks)
	if init == nil {
		init = phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	}
	if err := simmpi.Run(ranks, spec.Timeout, func(comm *simmpi.Comm) error {
		out, err := engine.RunRank(comm, prob, init, spec, engine.Hooks{})
		outs[comm.Rank()] = out
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Assemble(prob, spec, outs)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := j.CheckpointPath()
	got, err := dataio.ReadObjectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Slices {
		if !slices.Equal(got[i].Data, ref.Slices[i].Data) {
			t.Fatalf("slice %d of the 16-rank grid job differs from the in-process run", i)
		}
	}

	shards, err := engine.Shards(prob, spec)
	if err != nil {
		t.Fatal(err)
	}
	n2 := prob.WindowN * prob.WindowN
	opening := 8 + 8*8 + 16*n2
	if prob.Prop != nil {
		opening += 16 * n2
	}
	for rank, w := range s.GridWorkers() {
		sh := shards[rank]
		share := len(sh.Locations)*(32+8*n2) + opening
		if params.InitialObject != nil {
			share += 48 + prob.Slices*16*sh.Region.Area()
		}
		// A gd pass comes back over the overlap it went out on, so what
		// a rank's peers routed to it is what it sent them.
		setup := w.BytesOut - outs[rank].SentBytes
		if setup < int64(share) || float64(setup) > 1.2*float64(share) {
			t.Errorf("rank %d was sent %d B of set-up; its share (%d locations, opening, init %v) is %d B",
				rank, setup, len(sh.Locations), params.InitialObject != nil, share)
		}
	}
}

// TestGridWorkerKilled is the capstone's failure half: killing a worker
// process mid-iteration fails the job cleanly (typed peer-lost error,
// no hang) with a final OBJCKv1 checkpoint flushed, from which Resume
// continues once the pool is healthy again — also when the first resume
// loses a worker while its shard is still arriving.
func TestGridWorkerKilled(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 4, CheckpointEvery: 1,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	cancels := startGridWorkers(t, s, 4)

	j, err := s.Submit(prob, Params{
		Algorithm: "gd", Iterations: 500000, StepSize: 0.005,
		MeshRows: 2, MeshCols: 2, Grid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the run to be demonstrably mid-flight (first periodic
	// checkpoint durable), then kill one worker process.
	waitFor(t, "first checkpoint", func() bool {
		_, iter := j.CheckpointPath()
		return iter >= 1
	})
	cancels[2]()

	waitFor(t, "job failed", func() bool { return j.State() == Failed })
	info := j.Info(0)
	if !strings.Contains(info.Error, "peer lost") {
		t.Fatalf("failure error %q does not name the lost peer", info.Error)
	}
	path, iter := j.CheckpointPath()
	if path == "" || iter < 1 {
		t.Fatalf("no final checkpoint flushed (path %q, iter %d)", path, iter)
	}
	slices, err := dataio.ReadObjectFile(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if len(slices) != prob.Slices || !slices[0].Bounds.Eq(prob.ImageBounds()) {
		t.Fatalf("checkpoint shape: %d slices on %v", len(slices), slices[0].Bounds)
	}

	// The job is resumable once the pool is whole again (3 workers are
	// not enough for a 2x2 mesh). First a 4th joins that dies mid-shard —
	// it takes its SETUP, reads the start of its measurements and drops
	// the connection: the resumed run must fail the same clean way, and
	// the survivors must come back idle.
	idleWorkers := func() int {
		idle := 0
		for _, w := range s.GridWorkers() {
			if !w.Busy {
				idle++
			}
		}
		return idle
	}
	doomed, err := transport.Dial(s.GridAddr(), transport.DialOptions{Name: "dies-mid-shard"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer doomed.Close()
		if setup, err := doomed.WaitSetup(context.Background(), nil); err == nil {
			io.ReadFull(setup.Shard, make([]byte, 64))
		}
	}()
	waitFor(t, "doomed worker", func() bool { return idleWorkers() == 4 })
	lost, err := s.Resume(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed job on the doomed worker failed", func() bool { return lost.State() == Failed })
	if info := lost.Info(0); !strings.Contains(info.Error, "peer lost") {
		t.Fatalf("failure error %q does not name the lost peer", info.Error)
	}
	waitFor(t, "survivors idle", func() bool { return idleWorkers() == 3 && len(s.GridWorkers()) == 3 })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: "replacement"})
	waitFor(t, "replacement worker", func() bool { return idleWorkers() == 4 })
	resumed, err := s.Resume(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	// The ranks apply the Spec's start_iter themselves: the first
	// iteration the resumed job reports is iter+1, not 1.
	waitFor(t, "resumed job iterating", func() bool {
		return len(resumed.Info(-1).CostHistory) >= 2 || resumed.State().Terminal()
	})
	if info := resumed.Info(-1); len(info.CostHistory) < 2 || info.Iter != iter+len(info.CostHistory) {
		t.Fatalf("resumed from iteration %d, ran %d more, reports iteration %d (%s %s)",
			iter, len(info.CostHistory), info.Iter, info.State, info.Error)
	}
	if err := s.Cancel(resumed.ID()); err != nil && !errors.Is(err, ErrFinished) {
		t.Fatal(err)
	}
	waitFor(t, "resumed job terminal", func() bool { return resumed.State().Terminal() })
}

// TestGridRequiresConfiguration: grid jobs are validated up front —
// no grid listener means ErrNoGrid at submit, and a serial algorithm
// can never run on the grid.
func TestGridRequiresConfiguration(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	if _, err := s.Submit(prob, Params{Algorithm: "gd", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("no-grid submit: got %v, want ErrInvalidParams (ErrNoGrid)", err)
	}

	sg := newTestService(t, Config{Workers: 1, QueueDepth: 4, GridAddr: "127.0.0.1:0"})
	if _, err := sg.Submit(prob, Params{Algorithm: "serial", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("serial grid submit: got %v, want ErrInvalidParams", err)
	}

	// Streaming jobs run on the local pool only; grid=1 must be
	// rejected up front rather than silently running locally while
	// reporting "grid": true.
	hdr := dataio.HeaderFromProblem(prob)
	if _, err := sg.SubmitStreaming(hdr, Params{Algorithm: "gd", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("streaming grid submit: got %v, want ErrInvalidParams", err)
	}
}

// TestGridNoIdleWorkers: a grid job submitted with an empty worker pool
// fails with the transport's typed error instead of queueing forever.
func TestGridNoIdleWorkers(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, GridAddr: "127.0.0.1:0"})
	j, err := s.Submit(prob, Params{Algorithm: "gd", Iterations: 3, MeshRows: 2, MeshCols: 2, Grid: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job failed", func() bool { return j.State() == Failed })
	if info := j.Info(0); !strings.Contains(info.Error, "idle grid workers") {
		t.Fatalf("error %q does not report the empty pool", info.Error)
	}
	_ = transport.ErrNoWorkers // the typed error the message stems from
}
