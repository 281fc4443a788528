package gridworker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
	"ptychopath/internal/wire"
)

// TestBadSetupFailsInBand: a session the worker cannot run — a Spec
// naming an unknown algorithm, a shard with a flipped byte (caught by
// the PTYCHS chunk CRC), a shard that stops before its 'E' chunk, an
// initial object that does not decode — comes back as RankResult.Err
// (the session fails with the rank's message), never as a dropped
// connection: the same two connections then serve a good session, a
// vacuum start with no init tile, whose ranks match engine.RunRank on
// the full problem.
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
	const ranks = 2
	spec := engine.Spec{Algorithm: "gd", MeshRows: 1, MeshCols: ranks, StepSize: 0.02, Iterations: 3}
	shards, err := engine.Shards(prob, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each rank's share as the coordinator sends it on a vacuum start:
	// no init tile and a PTYCHS stream of two chunks.
	streams := make([][]byte, ranks)
	for r, sh := range shards {
		var frames []dataio.Frame
		for _, i := range sh.Locations {
			frames = append(frames, dataio.Frame{Loc: pat.Locations[i], Meas: prob.Meas[i]})
		}
		var buf bytes.Buffer
		half := len(frames) / 2
		if err := errors.Join(
			dataio.WriteStreamHeader(&buf, dataio.HeaderFromProblem(prob)),
			dataio.WriteFrameChunk(&buf, prob.WindowN, frames[:half]),
			dataio.WriteFrameChunk(&buf, prob.WindowN, frames[half:]),
			dataio.WriteEOFChunk(&buf),
		); err != nil {
			t.Fatal(err)
		}
		streams[r] = buf.Bytes()
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
	go func() { exited <- Run(ctx, hub.Addr().String(), Options{Name: "w", Ranks: ranks}) }()

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
	// session runs one session in which rank 1's shard is mangled and
	// rank 1 is sent init.
	session := func(alg string, init []byte, mangle func([]byte) []byte) ([]*transport.RankResult, error) {
		t.Helper()
		spec := spec
		spec.Algorithm = alg
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		setups := make([]*transport.Setup, ranks)
		for r := range setups {
			stream, rankInit := streams[r], []byte(nil)
			if r == 1 {
				stream, rankInit = mangle(bytes.Clone(stream)), init
			}
			setups[r] = &transport.Setup{
				JobID: "t", Algorithm: alg, TimeoutMS: 30_000,
				Spec: specJSON, Init: rankInit, Shard: bytes.NewReader(stream),
			}
		}
		sess, err := hub.StartSession(setups, transport.SessionCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		return sess.Wait(context.Background())
	}
	intact := func(b []byte) []byte { return b }

	before := waitIdle()
	tile, err := dataio.AppendObject(nil, phantom.Vacuum(shards[1].Region, prob.Slices).Slices)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name, alg, want string
		init            []byte
		mangle          func([]byte) []byte
	}{
		{"unknown algorithm", "nope", `unknown algorithm "nope"`, nil, intact},
		{"flipped shard byte", "gd", "decoding shard: " + dataio.ErrChunkCorrupt.Error(), nil,
			func(b []byte) []byte { b[len(b)-100] ^= 0x20; return b }},
		{"shard truncated before 'E'", "gd", "decoding shard: stream ends before its 'E' chunk", nil,
			func(b []byte) []byte { return b[:len(b)-wire.ChunkOverhead] }},
		{"truncated init", "gd", "decoding initial object: ", tile[:len(tile)-1], intact},
	} {
		if _, err := session(bad.alg, bad.init, bad.mangle); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("%s: session error %v, want %q", bad.name, err, bad.want)
		}
		waitIdle()
	}
	after := waitIdle()
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("worker %d reconnected (id %d -> %d): a bad session tore its connection down",
				i, before[i].ID, after[i].ID)
		}
	}
	results, err := session("gd", nil, intact)
	if err != nil {
		t.Fatalf("good session after four bad ones: %v", err)
	}
	// The vacuum start against the same ranks in this process on the
	// full problem: same costs, same interior bytes.
	mesh, err := engine.NewMesh(prob, spec)
	if err != nil {
		t.Fatal(err)
	}
	vacuum := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	if err := simmpi.Run(ranks, 30*time.Second, func(comm *simmpi.Comm) error {
		out, err := engine.RunRank(comm, prob, vacuum, spec, engine.Hooks{})
		if err != nil {
			return err
		}
		r, res := comm.Rank(), results[comm.Rank()]
		want, err := dataio.AppendObjectRegion(nil, out.Slices, mesh.Tile(mesh.RowCol(r)))
		if err != nil {
			return err
		}
		if res.Err != "" || !slices.Equal(res.CostHistory, out.CostHistory) || !bytes.Equal(res.Tile, want) ||
			res.Locations != len(shards[r].Locations) {
			t.Errorf("rank %d result: err %q, costs %v (want %v), %d tile bytes (match %v), %d locations",
				r, res.Err, res.CostHistory, out.CostHistory, len(res.Tile), bytes.Equal(res.Tile, want), res.Locations)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
