package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/collective"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/transport"
)

// The grid coordinator: when Config.GridAddr is set, the service runs a
// transport.Hub that worker processes (cmd/ptychoworker) register with,
// and jobs submitted with Params.Grid execute their parallel engine
// across those processes instead of in-process goroutines — one rank
// per leased worker endpoint, traffic routed over the CRC-framed TCP
// transport. The coordinator shards the job with engine.Shards: a rank
// is sent the measurements it evaluates, cut from the job's spool as
// they are and streamed while it decodes, and never sees the rest of
// the dataset — the paper's memory-per-GPU claim (Table II/III) at the
// process boundary. A warm start also sends each rank its own tile of
// the initial object; a vacuum start sends none, and the rank builds
// its own. The coordinator decodes none of it. Progress, snapshots and
// checkpoints reuse the exact machinery of local jobs: the worker
// running rank 0 relays per-iteration cost and periodic stitched
// snapshots, and the coordinator writes the same OBJCKv1 checkpoints,
// so cancel/resume/previews/SSE behave identically for grid jobs.
//
// A worker lost mid-run fails the session: every other rank's blocking
// operation returns transport.ErrPeerLost, the job transitions to
// Failed, and the last received snapshot is flushed as a final
// checkpoint — Resume then continues the work from it.

// ErrNoGrid is returned by Submit for a Params.Grid job when the
// service was started without a grid listener.
var ErrNoGrid = fmt.Errorf("%w: no worker grid configured (start the service with a grid address)", ErrInvalidParams)

// GridEnabled reports whether the service runs a worker grid.
func (s *Service) GridEnabled() bool { return s.grid != nil }

// GridAddr returns the hub's listen address ("" without a grid).
func (s *Service) GridAddr() string {
	if s.grid == nil {
		return ""
	}
	return s.grid.Addr().String()
}

// GridWorkers lists the registered grid workers as GET /v1/grid serves
// them: empty, never nil, without a grid.
func (s *Service) GridWorkers() []client.GridWorker {
	var ws []transport.WorkerInfo
	if s.grid != nil {
		ws = s.grid.Workers()
	}
	out := make([]client.GridWorker, len(ws))
	for i, w := range ws {
		out[i] = client.GridWorker(w)
	}
	return out
}

// executeGrid runs one parallel job across leased grid workers. On
// session failure it returns the last snapshot received (possibly nil)
// so the caller flushes a final checkpoint, mirroring the partial-result
// contract of the in-process engines.
func (s *Service) executeGrid(j *Job, spec engine.Spec) ([]*grid.Complex2D, error) {
	p := j.params
	prob := j.data.geom
	shards, err := engine.Shards(prob, spec)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("grid: encoding spec: %w", err)
	}
	setups := make([]*transport.Setup, len(shards))
	var cuts sync.WaitGroup
	defer cuts.Wait() // after the pipes below close
	for r, sh := range shards {
		var init []byte // a vacuum start ships no tile
		if p.InitialObject != nil {
			if init, err = dataio.AppendObjectRegion(nil, p.InitialObject, sh.Region); err != nil {
				return nil, fmt.Errorf("grid: encoding initial object: %w", err)
			}
		}
		// The rank's shard, cut from the spool into a pipe the hub reads;
		// closing it on every way out stops the cut and frees the spool.
		shard, pw := io.Pipe()
		defer shard.Close()
		cuts.Add(1)
		go func() {
			defer cuts.Done()
			pw.CloseWithError(s.readSpool(j.data.path, func(r io.Reader) error {
				return dataio.CutShard(pw, r, sh.Locations)
			}))
		}()
		setups[r] = &transport.Setup{
			JobID:     j.id,
			Algorithm: spec.Algorithm,
			TimeoutMS: spec.Timeout.Milliseconds(),
			Trace:     p.RequestID,
			Spec:      specJSON,
			Init:      init,
			Shard:     shard,
		}
	}

	hooks := s.hooks(j)
	// lastSnap tracks the newest decoded snapshot for the final-
	// checkpoint-on-failure guarantee; snapshots arrive on hub
	// goroutines.
	var snapMu sync.Mutex
	var lastSnap []*grid.Complex2D
	j.beginIterations()
	sess, err := s.grid.StartSession(setups, transport.SessionCallbacks{
		OnIteration:  hooks.OnIteration,
		OnRankTiming: hooks.OnRankStats,
		OnSnapshot: func(iter int, object []byte) error {
			slices, err := dataio.ReadObject(bytes.NewReader(object))
			if err != nil {
				return err
			}
			snapMu.Lock()
			lastSnap = slices
			snapMu.Unlock()
			// Decoded fresh for this snapshot: nothing else holds it.
			return s.snapshot(j, iter+1, slices)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}

	// Relay job cancellation: ask every rank to stop at its next
	// iteration boundary, and hard-abort the session if the drain
	// stalls longer than the communication timeout.
	waitCtx, cancelWait := context.WithCancel(context.Background())
	defer cancelWait()
	stopRelay := context.AfterFunc(j.ctx, func() {
		sess.Cancel()
		t := time.AfterFunc(s.cfg.Timeout, cancelWait)
		context.AfterFunc(waitCtx, func() { t.Stop() })
	})
	defer stopRelay()

	results, err := sess.Wait(waitCtx)
	if err != nil {
		snapMu.Lock()
		snap := lastSnap
		snapMu.Unlock()
		return snap, fmt.Errorf("grid: %w", err)
	}
	// Decode the per-rank results and stitch them with the engine's own
	// assembler, so a grid job's final object is byte-for-byte what the
	// in-process run of the same parameters produces.
	outs := make([]*collective.RankOutcome, len(results))
	for i, r := range results {
		slices, err := dataio.ReadObject(bytes.NewReader(r.Tile))
		if err != nil {
			return nil, fmt.Errorf("grid: decoding rank %d tile: %w", i, err)
		}
		outs[i] = &collective.RankOutcome{
			Slices: slices, CostHistory: r.CostHistory,
			Locations: r.Locations, Owned: r.Owned, MemBytes: r.MemBytes,
			ComputeNS: r.ComputeNS, CommNS: r.CommNS,
			SentBytes: r.SentBytes, SentMessages: r.SentMessages,
			Cancelled: r.Cancelled,
		}
	}
	res, err := engine.Assemble(prob, spec, outs)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if outs[0].Cancelled {
		return res.Slices, context.Canceled
	}
	return res.Slices, nil
}
