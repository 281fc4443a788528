package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"ptychopath/internal/dataio"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// kind selects the closed loop that drives a workload.
type kind int

const (
	// kindLibrary calls an engine's Reconstruct directly; one operation
	// is one iteration.
	kindLibrary kind = iota
	// kindJobs submits jobs through the /v1 stack; one operation is one
	// job, submit to terminal event.
	kindJobs
	// kindRelay runs long grid jobs through the /v1 stack; one operation
	// is one iteration, seen as an SSE event at the client.
	kindRelay
	// kindStream feeds a streaming job; one operation is one accepted
	// chunk of frames.
	kindStream
)

// workload is one row of the benchmark. The shapes are the contract and
// never change; scale only shortens the per-operation iteration counts
// and the streamed prefix.
type workload struct {
	name string
	why  string
	kind kind

	scan, window, slices int    // dataset: scan x scan locations, window px, slices
	alg                  string // serial | gd | hve
	iters                int    // iterations per reconstruction or job at scale 1
	rounds               int    // communication rounds per iteration of the parallel engines, here and in the probes
	grid                 bool   // jobs run on the four loopback grid ranks
	wal                  bool   // service state in an on-disk WAL (else store.Mem)
	clients              int    // concurrent closed-loop clients
	// maxOps ends the timed phase early once this many operations are
	// done (0: the deadline alone ends it). The service keeps every
	// finished job, so peak memory grows with the jobs a run gets
	// through; a cap the run normally reaches makes peak_rss_mb compare
	// the same number of jobs on every commit instead of rewarding a
	// slower one.
	maxOps int
}

// The four library workloads share one mesh and one problem family so a
// layer's cost can be followed from the plain serial baseline through
// both parallel engines; the four service workloads each pin one part
// of the serving stack that the library workloads never touch.
var workloads = []workload{
	{name: "serial-n32", kind: kindLibrary, alg: "serial", scan: 16, window: 32, slices: 2, iters: 20, rounds: 1,
		why: "single-threaded baseline: radix-2 FFT and the multislice kernel are nearly all the work, no communication, no service"},
	{name: "serial-n24", kind: kindLibrary, alg: "serial", scan: 12, window: 24, slices: 2, iters: 12, rounds: 1,
		why: "same layers through the Bluestein FFT path; a mixed-radix plan must move this and leave serial-n32 flat"},
	{name: "gd-inproc", kind: kindLibrary, alg: "gd", scan: 16, window: 32, slices: 2, iters: 30, rounds: 1,
		why: "the paper's Alg. 1 with APPP: gradsync, simmpi, tiling and collective on the critical path, no TCP, no service"},
	{name: "hve-inproc", kind: kindLibrary, alg: "hve", scan: 16, window: 32, slices: 2, iters: 25, rounds: 1,
		why: "the halo-voxel-exchange baseline uses the same comm layers differently; a gain for gd that costs hve shows here"},
	{name: "grid-setup", kind: kindJobs, alg: "gd", scan: 24, window: 32, slices: 2, iters: 3, rounds: 1,
		grid: true, wal: true, clients: 1, maxOps: 28,
		why: "3-iteration grid jobs on a 4.8 MB dataset: upload, decode, spool, fsync, SETUP to four ranks and stitch dominate, the kernel does little"},
	{name: "grid-relay", kind: kindRelay, alg: "gd", scan: 24, window: 16, slices: 1, iters: 100, rounds: 16,
		grid: true, clients: 1,
		why: "long grid jobs with 16 rounds per iteration on a small window: per-iteration hub relay dominates, set-up does not"},
	{name: "svc-small-jobs", kind: kindJobs, alg: "serial", scan: 4, window: 16, slices: 1, iters: 2, rounds: 1,
		wal: true, clients: 2, maxOps: 3000,
		why: "many 2-iteration jobs on a 37 KB dataset: httpapi, the jobs lifecycle and WAL fsync are nearly all the work"},
	{name: "stream-feed", kind: kindStream, alg: "serial", scan: 40, window: 32, slices: 2, iters: 3, rounds: 1,
		wal: true, clients: 1, maxOps: 150,
		why: "1600 frames fed flat out in 64-frame chunks into a 256-frame ingest: the write path (ingest, spool, fold) and backpressure honesty"},
}

const (
	stepSize       = 0.01
	streamChunk    = 64  // frames per appended chunk
	streamIngest   = 256 // ingest_capacity of the streaming job
	streamTail     = 3   // iterations a streaming job runs after EOF
	meshRows       = 2
	meshCols       = 2
	referenceIters = 5 // leading costs compared with solver.Reconstruct
)

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shortens an iteration or frame count by the global scale
// factor, never below lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// inputs is everything a workload derives from the seed: the problem,
// its PTYCHOv1 bytes (what a client uploads) and the reference costs.
type inputs struct {
	prob    *solver.Problem
	dataset []byte
	// reference holds the first costs of solver.Reconstruct on prob;
	// serial, gd and grid runs must reproduce them.
	reference []float64
}

// generate is cmd/datagen's recipe: raster scan at 0.75 overlap with
// probe radius window/4, PbTiO3 phantom, multislice simulation. The
// seed moves only the phantom's displacement disorder, so every seed
// gives the same amount of work on different numbers.
func generate(w *workload, seed int64) (*solver.Problem, error) {
	radius := float64(w.window) / 4
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: w.scan, Rows: w.scan,
		StepPix: scan.StepForOverlap(radius, 0.75), RadiusPix: radius,
		MarginPix: float64(w.window)/2 + 2,
	})
	if err != nil {
		return nil, err
	}
	cfg := phantom.DefaultLeadTitanate(pat.ImageW, pat.ImageH, w.slices)
	cfg.Seed = seed
	cfg.Disorder = 0.5
	if pat.ImageW < 160 {
		cfg.UnitCellPix = float64(pat.ImageW) / 5
	}
	obj, err := phantom.LeadTitanate(cfg)
	if err != nil {
		return nil, err
	}
	return solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj,
		WindowN: w.window, Seed: seed,
	})
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	prob, err := generate(w, seed)
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	var buf bytes.Buffer
	if err := dataio.Write(&buf, prob); err != nil {
		return nil, fmt.Errorf("encoding dataset: %w", err)
	}
	in := &inputs{prob: prob, dataset: buf.Bytes()}
	if w.kind != kindStream && w.alg != "hve" {
		// hve updates locally per tile and a streamed run folds frames
		// as they arrive; neither follows the batch trajectory.
		// One round per iteration is arithmetically the serial batch
		// update, so solver.Reconstruct is the reference; more rounds
		// update the object mid-iteration and only the in-process
		// engine with the same rounds follows the same trajectory.
		alg := "serial"
		if w.rounds > 1 {
			alg = w.alg
		}
		ref, err := reconstruct(context.Background(), alg, prob, min(referenceIters, w.iters), w.rounds)
		if err != nil {
			return nil, fmt.Errorf("reference reconstruction: %w", err)
		}
		in.reference = ref.costs
	}
	return in, nil
}

func vacuum(prob *solver.Problem) []*grid.Complex2D {
	return phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
}

func newMesh(prob *solver.Problem) (*tiling.Mesh, error) {
	return tiling.NewMesh(prob.ImageBounds(), meshRows, meshCols, tiling.HaloForWindow(prob.WindowN))
}
