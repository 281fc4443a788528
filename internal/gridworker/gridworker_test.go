package gridworker

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
)

// TestBadSetupFailsInBand: a SETUP the worker cannot run — an unknown
// algorithm, corrupt dataset bytes — comes back as RankResult.Err (the
// session fails with the rank's message), never as a dropped
// connection: the same two connections then serve a good session.
func TestBadSetupFailsInBand(t *testing.T) {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 4, Rows: 4, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1), WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var probBuf, initBuf bytes.Buffer
	if err := dataio.Write(&probBuf, prob); err != nil {
		t.Fatal(err)
	}
	if err := dataio.WriteObject(&initBuf, phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices); err != nil {
		t.Fatal(err)
	}

	hub, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	// No Reconnect: a torn-down connection would end Run, and the good
	// session below would find no worker.
	go func() { exited <- Run(ctx, hub.Addr().String(), Options{Name: "w", Ranks: 2}) }()

	const ranks = 2
	waitIdle := func() []transport.WorkerInfo {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for hub.IdleWorkers() != ranks {
			select {
			case err := <-exited:
				t.Fatalf("worker exited: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers idle", hub.IdleWorkers(), ranks)
			}
			time.Sleep(time.Millisecond)
		}
		return hub.Workers()
	}
	session := func(alg string, problem []byte) ([]*transport.RankResult, error) {
		t.Helper()
		setups := make([]*transport.Setup, ranks)
		for r := range setups {
			setups[r] = &transport.Setup{
				JobID: "t", Algorithm: alg, MeshRows: 1, MeshCols: ranks,
				StepSize: 0.02, Iterations: 3, TimeoutMS: 30_000,
				Problem: problem, Init: initBuf.Bytes(),
			}
		}
		sess, err := hub.StartSession(setups, transport.SessionCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		return sess.Wait(context.Background())
	}

	before := waitIdle()
	if _, err := session("nope", probBuf.Bytes()); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Fatalf("unknown algorithm: session error %v", err)
	}
	waitIdle()
	if _, err := session("gd", probBuf.Bytes()[:probBuf.Len()/2]); err == nil || !strings.Contains(err.Error(), "decoding problem") {
		t.Fatalf("corrupt problem: session error %v", err)
	}
	after := waitIdle()
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("worker %d reconnected (id %d -> %d): a bad SETUP tore its connection down",
				i, before[i].ID, after[i].ID)
		}
	}
	results, err := session("gd", probBuf.Bytes())
	if err != nil {
		t.Fatalf("good session after two bad ones: %v", err)
	}
	for r, res := range results {
		if res.Err != "" || len(res.CostHistory) != 3 || len(res.Tile) == 0 {
			t.Errorf("rank %d result: err %q, %d costs, %d tile bytes", r, res.Err, len(res.CostHistory), len(res.Tile))
		}
	}
}
