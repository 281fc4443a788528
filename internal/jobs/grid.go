package jobs

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/transport"
)

// The grid coordinator: when Config.GridAddr is set, the service runs a
// transport.Hub that worker processes (cmd/ptychoworker) register with,
// and jobs submitted with Params.Grid execute their parallel engine
// across those processes instead of in-process goroutines — one rank
// per leased worker endpoint, mesh tiles sharded across them, traffic
// routed over the CRC-framed TCP transport. Progress, snapshots and
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

// GridWorkerInfo describes one registered grid worker endpoint.
type GridWorkerInfo = transport.WorkerInfo

// GridWorkers lists the registered grid workers.
func (s *Service) GridWorkers() []transport.WorkerInfo {
	if s.grid == nil {
		return nil
	}
	return s.grid.Workers()
}

// executeGrid runs one parallel job across leased grid workers. On
// session failure it returns the last snapshot received (possibly nil)
// so the caller flushes a final checkpoint, mirroring the partial-result
// contract of the in-process engines.
func (s *Service) executeGrid(j *Job, spec engine.Spec) ([]*grid.Complex2D, error) {
	p := j.params
	prob := j.prob
	init := p.InitialObject
	if init == nil {
		init = phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	}
	mesh, err := engine.NewMesh(prob, spec)
	if err != nil {
		return nil, err
	}

	// Serialize the dataset and warm-start once; every rank receives
	// the same blobs and derives its shard deterministically from the
	// mesh (see gradsync.RunRank).
	var probBuf, initBuf bytes.Buffer
	if err := dataio.Write(&probBuf, prob); err != nil {
		return nil, fmt.Errorf("grid: encoding problem: %w", err)
	}
	if err := dataio.WriteObject(&initBuf, init); err != nil {
		return nil, fmt.Errorf("grid: encoding initial object: %w", err)
	}
	setups := make([]*transport.Setup, mesh.NumTiles())
	for r := range setups {
		setups[r] = &transport.Setup{
			JobID:     j.id,
			Algorithm: spec.Algorithm,
			MeshRows:  spec.MeshRows, MeshCols: spec.MeshCols, Halo: mesh.Halo,
			HaloWidth: mesh.Halo, ExtraRows: engine.HVEExtraRows,
			StepSize: spec.StepSize, Iterations: spec.Iterations,
			RoundsPerIteration: spec.RoundsPerIteration,
			IntraWorkers:       spec.IntraWorkers,
			SnapshotEvery:      spec.SnapshotEvery,
			TimeoutMS:          spec.Timeout.Milliseconds(),
			Trace:              p.RequestID,
			Problem:            probBuf.Bytes(), Init: initBuf.Bytes(),
		}
	}

	// The ranks run unshifted (SETUP carries no start iteration), so the
	// job's offset is applied to the indices they relay, here.
	hooks := s.hooks(j).Offset(spec.StartIter)
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
			return hooks.OnSnapshot(iter, slices)
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
