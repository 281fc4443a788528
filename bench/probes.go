package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/fft"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/multislice"
	"ptychopath/internal/obs"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/stream"
	"ptychopath/internal/transport"
)

// prober runs the per-layer probes of a traced run. Every probe calls
// one layer's public functions on the workload's own inputs — its
// dataset shape, its algorithm parameters — so the numbers say what
// that layer costs for this workload, not for a generic one. Each
// probe is one span; later probes read what earlier ones measured.
type prober struct {
	ctx   context.Context
	w     *workload
	in    *inputs
	scale float64
	dir   string
	tr    *obs.Trace
	res   *result

	fwd2dUS     float64 // fft → multislice.fft_share
	lossgradUS  float64 // multislice → solver.kernel_share
	solverMS    float64 // solver → gradsync.speedup_vs_serial
	gdIterMS    float64 // gradsync → grid.iter_overhead_ms
	gdBytesIter float64 // gradsync → transport.relay_factor
	syncsPerJob float64 // jobs → store.syncs_per_job
	walPerJob   float64 // jobs → store.wal_bytes_per_job
}

// Budgets at scale 1. Iteration counts follow the dataset so a probe
// costs about the same wall time on every workload.
const (
	probeLocations = 4000 // location-gradients per engine probe
	probeJobIters  = 2    // iterations of the jobs and httpapi probe jobs
	setupJobIters  = 3    // iterations of the grid set-up comparison jobs
	streamProbeMax = 640  // frames fed by the stream probe
)

func (p *prober) jobIters() int   { return p.reps(probeJobIters, 1) }
func (p *prober) setupIters() int { return p.reps(setupJobIters, 1) }

func (p *prober) reps(n, lo int) int { return scaled(n, p.scale, lo) }

// engineIters is the iteration count of the solver, gradsync, halo and
// grid probes: fixed by the dataset, so costs repeat for a seed.
func (p *prober) engineIters() int {
	n := min(max(probeLocations/p.in.prob.Pattern.N(), 5), 40)
	return p.reps(n, 1)
}

func (p *prober) run() error {
	probes := []struct {
		layer string
		fn    func() error
	}{
		{"fft", p.fft}, {"multislice", p.multislice}, {"solver", p.solver},
		{"gradsync", p.gradsync}, {"halo", p.halo},
		{"simmpi", p.simmpi}, {"transport", p.transport},
		{"dataio", p.dataio}, {"jobs", p.jobs}, {"store", p.store},
		{"service", p.service},
	}
	for _, pb := range probes {
		id := p.tr.Begin("probe:"+pb.layer, 0, obs.RankCoordinator, obs.IterNone)
		err := pb.fn()
		p.tr.End(id)
		if err != nil {
			return fmt.Errorf("%s probe: %w", pb.layer, err)
		}
	}
	return nil
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func (p *prober) fft() error {
	n := p.w.window
	plan := fft.NewPlan2D(n, n, false)
	var scr fft.Scratch
	scr.Warm(plan)
	src := p.in.prob.Probe
	a := src.Clone()
	const batch = 4 // forward transforms scale by n² each; refill before they overflow
	batchUS := make([]float64, p.reps(4000, 5))
	allocs := mallocs(func() {
		for i := range batchUS {
			copy(a.Data, src.Data)
			t := time.Now()
			for range batch {
				plan.TransformScratch(a, fft.Forward, &scr)
			}
			batchUS[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		}
	})
	ops := float64(len(batchUS) * batch)
	p.fwd2dUS = quiet(batchUS) / batch
	n2 := float64(n * n)
	p.res.set("fft.fwd2d_us", p.fwd2dUS)
	p.res.set("fft.gflops", 5*n2*math.Log2(n2)/p.fwd2dUS/1e3)
	p.res.set("fft.allocs_per_op", allocs/ops)
	return nil
}

func (p *prober) multislice() error {
	prob := p.in.prob
	eng := prob.NewEngine()
	slices := vacuum(prob)
	grads := vacuum(prob)
	// Whole sweeps over every location at scale 1, a prefix of them when
	// the budget is smaller than the dataset; timed in blocks so that a
	// loud stretch spoils some blocks and not the figure.
	budget := p.reps(probeLocations, 8)
	locs := prob.Pattern.Locations[:min(prob.Pattern.N(), budget)]
	const block = 16
	eng.LossGrad(slices, locs[0].Window(prob.WindowN), prob.Meas[0], grads) // grows the engine's arena
	var blockUS []float64
	ops := 0.0
	allocs := mallocs(func() {
		for range max(1, budget/len(locs)) {
			for lo := 0; lo < len(locs); lo += block {
				hi := min(lo+block, len(locs))
				t := time.Now()
				for i := lo; i < hi; i++ {
					eng.LossGrad(slices, locs[i].Window(prob.WindowN), prob.Meas[i], grads)
				}
				blockUS = append(blockUS, float64(time.Since(t).Nanoseconds())/1e3/float64(hi-lo))
				ops += float64(hi - lo)
			}
		}
	})
	p.lossgradUS = quiet(blockUS)

	n, s := prob.WindowN, prob.Slices
	flops := multislice.FlopsPerLocation(n, s)
	ffts := float64(4*s - 2) // 2S-1 transforms forward, as many back
	// Bytes moved, computed from array sizes (cache misses ignored): a
	// 2-D transform reads and writes the n² complex window once per
	// row pass and once per column pass; each slice adds about six
	// element-wise read+write passes (extract, multiply, keep psi, two
	// adjoint multiplies, accumulate); the measurement is read once.
	window := 16 * float64(n*n)
	computed := ffts*4*window + float64(s)*12*window + 8*float64(n*n)
	p.res.set("multislice.lossgrad_us", p.lossgradUS)
	p.res.set("multislice.gflops", flops/p.lossgradUS/1e3)
	p.res.set("multislice.fft_share", ffts*p.fwd2dUS/p.lossgradUS)
	p.res.set("multislice.bytes_per_loc_computed", computed)
	p.res.set("multislice.flops_per_byte_computed", flops/computed)
	p.res.set("multislice.allocs_per_op", allocs/ops)
	return nil
}

func (p *prober) solver() error {
	iters := p.engineIters()
	rec, err := reconstruct(p.ctx, "serial", p.in.prob, iters, 1)
	if err != nil {
		return err
	}
	p.solverMS = quiet(rec.gaps())
	kernelMS := float64(p.in.prob.Pattern.N()) * p.lossgradUS / 1e3
	// Iterations until the cost is below tolShare of the first cost;
	// one past the run's length when it never got there.
	const tolShare = 0.5
	toTol := len(rec.costs) + 1
	for i, c := range rec.costs {
		if c <= tolShare*rec.costs[0] {
			toTol = i + 1
			break
		}
	}
	p.res.set("solver.iter_ms", p.solverMS)
	p.res.set("solver.kernel_share", kernelMS/p.solverMS)
	p.res.set("solver.self_ms_per_iter", p.solverMS-kernelMS)
	p.res.set("solver.iters_to_tol", float64(toTol))
	p.res.set("solver.final_cost", rec.costs[len(rec.costs)-1])
	return nil
}

func (p *prober) gradsync() error {
	iters := p.engineIters()
	rec, err := reconstruct(p.ctx, "gd", p.in.prob, iters, p.w.rounds)
	if err != nil {
		return err
	}
	p.gdIterMS = quiet(rec.gaps())
	p.gdBytesIter = float64(rec.bytesSent) / float64(iters)
	var sum int64
	for _, c := range rec.rankComputeNS {
		sum += c
	}
	maxCompute := slices.Max(rec.rankComputeNS)
	p.res.set("gradsync.iter_ms", p.gdIterMS)
	p.res.set("gradsync.compute_ms_per_iter_max", ms(maxCompute)/float64(iters))
	p.res.set("gradsync.comm_ms_per_iter_max", ms(slices.Max(rec.rankCommNS))/float64(iters))
	p.res.set("gradsync.imbalance_ratio", float64(maxCompute)*float64(len(rec.rankComputeNS))/float64(max(sum, 1)))
	p.res.set("gradsync.bytes_per_iter", p.gdBytesIter)
	p.res.set("gradsync.msgs_per_iter", float64(rec.msgsSent)/float64(iters))
	p.res.set("gradsync.rank_mem_mb_max", float64(slices.Max(rec.rankMemBytes))/1e6)
	p.res.set("gradsync.speedup_vs_serial", p.solverMS/p.gdIterMS)
	return nil
}

func (p *prober) halo() error {
	iters := p.engineIters()
	rec, err := reconstruct(p.ctx, "hve", p.in.prob, iters, p.w.rounds)
	if err != nil {
		return err
	}
	located := 0
	for _, n := range rec.rankLocations {
		located += n
	}
	p.res.set("halo.iter_ms", quiet(rec.gaps()))
	p.res.set("halo.bytes_per_iter", float64(rec.bytesSent)/float64(iters))
	p.res.set("halo.msgs_per_iter", float64(rec.msgsSent)/float64(iters))
	p.res.set("halo.rank_mem_mb_max", float64(slices.Max(rec.rankMemBytes))/1e6)
	p.res.set("halo.redundant_loc_ratio", float64(located)/float64(p.in.prob.Pattern.N()))
	return nil
}

// exchangeTimes is what rank 0 measured in exchange.
type exchangeTimes struct {
	pingpongUS, allreduceUS, barrierUS float64
	streamMBps                         float64
}

const (
	tagPing   = 101
	tagStream = 102
	streamMsg = 1 << 16 // complex128 per streamed message: 1 MiB
)

// exchange is the communication micro-benchmark every rank of a
// four-rank world runs, over simmpi.Comm or transport.Client alike:
// ranks 0 and 1 ping-pong one halo-edge payload, all ranks allreduce
// and barrier, and — when streamMsgs > 0 — rank 0 streams 1 MiB
// messages to rank 1. Rank 0 returns the timings.
func exchange(c simmpi.Transport, payload []complex128, reps, streamMsgs int) (*exchangeTimes, error) {
	t := &exchangeTimes{}
	// Each exchange is timed in groups, every rank running the same
	// count, and reported as the quiet quartile of the groups.
	const groups = 5
	per := max(1, reps/groups)
	timed := func(fn func() error) (float64, error) {
		us := make([]float64, groups)
		for g := range us {
			start := time.Now()
			for range per {
				if err := fn(); err != nil {
					return 0, err
				}
			}
			us[g] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(per)
		}
		return quiet(us), nil
	}
	var err error
	if err = c.Barrier(); err != nil {
		return nil, err
	}
	t.pingpongUS, err = timed(func() error {
		switch c.Rank() {
		case 0:
			c.Send(1, tagPing, payload)
			_, err := c.Recv(1, tagPing)
			return err
		case 1:
			if _, err := c.Recv(0, tagPing); err != nil {
				return err
			}
			c.Send(0, tagPing, payload)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err = c.Barrier(); err != nil {
		return nil, err
	}
	if t.allreduceUS, err = timed(func() error { _, err := c.AllreduceSum(1); return err }); err != nil {
		return nil, err
	}
	if t.barrierUS, err = timed(c.Barrier); err != nil {
		return nil, err
	}
	if streamMsgs > 0 {
		start := time.Now()
		switch c.Rank() {
		case 0:
			big := make([]complex128, streamMsg)
			for range streamMsgs {
				c.Send(1, tagStream, big)
			}
			if _, err := c.Recv(1, tagStream); err != nil {
				return nil, err
			}
			t.streamMBps = float64(streamMsgs*streamMsg*16) / 1e6 / time.Since(start).Seconds()
		case 1:
			for range streamMsgs {
				if _, err := c.Recv(0, tagStream); err != nil {
					return nil, err
				}
			}
			c.Send(0, tagStream, nil)
		}
	}
	return t, nil
}

// haloEdge is the payload gd's vertical pass exchanges between two
// tiles of the workload's mesh.
func (p *prober) haloEdge() ([]complex128, error) {
	mesh, err := newMesh(p.in.prob)
	if err != nil {
		return nil, err
	}
	return make([]complex128, mesh.VerticalOverlap(0, 0).Area()*p.in.prob.Slices), nil
}

func (p *prober) simmpi() error {
	payload, err := p.haloEdge()
	if err != nil {
		return err
	}
	var t0 *exchangeTimes
	err = simmpi.Run(gridRanks, time.Minute, func(c *simmpi.Comm) error {
		t, err := exchange(c, payload, p.reps(300, 3), 0)
		if c.Rank() == 0 {
			t0 = t
		}
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("simmpi.pingpong_us", t0.pingpongUS)
	p.res.set("simmpi.allreduce_us", t0.allreduceUS)
	p.res.set("simmpi.barrier_us", t0.barrierUS)
	return nil
}

// transport runs the same exchange over the real thing: a hub on a
// loopback listener and four dialled clients in one session.
func (p *prober) transport() error {
	payload, err := p.haloEdge()
	if err != nil {
		return err
	}
	hub, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hub.Close()
	var t0 *exchangeTimes
	errs := make([]error, gridRanks)
	var wg sync.WaitGroup
	for slot := range gridRanks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = func() error {
				c, err := transport.Dial(hub.Addr().String(), transport.DialOptions{Name: fmt.Sprintf("probe-%d", slot), Timeout: time.Minute})
				if err != nil {
					return err
				}
				defer c.Close()
				setup, err := c.WaitSetup(p.ctx, nil)
				if err != nil {
					return err
				}
				t, err := exchange(c, payload, p.reps(300, 3), p.reps(32, 2))
				if setup.Rank == 0 {
					t0 = t
				}
				rr := &transport.RankResult{Rank: setup.Rank}
				if err != nil {
					rr.Err = err.Error()
				}
				return errors.Join(err, c.SendResult(rr))
			}()
		}()
	}
	for limit := time.Now().Add(10 * time.Second); hub.IdleWorkers() < gridRanks; time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			return errors.New("transport clients did not register within 10s")
		}
	}
	setups := make([]*transport.Setup, gridRanks)
	for i := range setups {
		setups[i] = &transport.Setup{JobID: "bench-probe", Algorithm: "gd", TimeoutMS: 60_000}
	}
	sess, err := hub.StartSession(setups, transport.SessionCallbacks{})
	if err != nil {
		return err
	}
	_, err = sess.Wait(p.ctx)
	wg.Wait()
	if err = errors.Join(append(errs, err)...); err != nil {
		return err
	}
	p.res.set("transport.pingpong_us", t0.pingpongUS)
	p.res.set("transport.allreduce_us", t0.allreduceUS)
	p.res.set("transport.barrier_us", t0.barrierUS)
	p.res.set("transport.stream_mb_per_s", t0.streamMBps)
	return nil
}

// timeQuiet runs fn n times and returns the quiet quartile of its
// durations in ms.
func timeQuiet(n int, fn func() error) (float64, error) {
	v, err := timeEach(n, fn)
	return quiet(v), err
}

// timeEach runs fn n times and returns each duration in ms.
func timeEach(n int, fn func() error) ([]float64, error) {
	v := make([]float64, n)
	for i := range v {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		v[i] = ms(time.Since(t).Nanoseconds())
	}
	return v, nil
}

func (p *prober) dataio() error {
	prob, n := p.in.prob, p.in.prob.WindowN
	mb := float64(len(p.in.dataset)) / 1e6
	var buf bytes.Buffer
	writeMS, err := timeQuiet(p.reps(5, 1), func() error {
		buf.Reset()
		return dataio.Write(&buf, prob)
	})
	if err != nil {
		return err
	}
	readMS, err := timeQuiet(p.reps(5, 1), func() error {
		_, err := dataio.Read(bytes.NewReader(p.in.dataset))
		return err
	})
	if err != nil {
		return err
	}
	object := vacuum(prob)
	objectMS, err := timeQuiet(p.reps(5, 1), func() error {
		return dataio.WriteObjectFileAtomic(filepath.Join(p.dir, "probe.objck"), object)
	})
	if err != nil {
		return err
	}
	frames := dataio.FramesFromProblem(prob)
	frames = frames[:min(streamChunk, len(frames))]
	var enc dataio.ChunkEncoder
	var chunk bytes.Buffer
	encMS, err := timeQuiet(p.reps(50, 2), func() error {
		chunk.Reset()
		return enc.WriteFrameChunk(&chunk, n, frames)
	})
	if err != nil {
		return err
	}
	decMS, err := timeQuiet(p.reps(50, 2), func() error {
		_, _, _, err := dataio.DecodeChunk(chunk.Bytes(), n)
		return err
	})
	if err != nil {
		return err
	}
	chunkMB := float64(chunk.Len()) / 1e6
	p.res.set("dataio.write_mb_per_s", mb/writeMS*1e3)
	p.res.set("dataio.read_mb_per_s", mb/readMS*1e3)
	p.res.set("dataio.object_write_ms", objectMS)
	p.res.set("dataio.chunk_encode_mb_per_s", chunkMB/encMS*1e3)
	p.res.set("dataio.chunk_decode_mb_per_s", chunkMB/decMS*1e3)
	return nil
}

func (p *prober) store() error {
	wal, err := store.OpenWAL(store.WALConfig{Dir: filepath.Join(p.dir, "store-probe")})
	if err != nil {
		return err
	}
	defer wal.Close()
	id := func(i int) string { return fmt.Sprintf("job-%04d", i) }
	n := p.reps(20, 3)
	submitMS := make([]float64, n)
	for i := range submitMS {
		t := time.Now()
		if err := wal.LogSubmit(store.SubmitRecord{ID: id(i), Params: json.RawMessage(`{}`), Created: t}); err != nil {
			return err
		}
		submitMS[i] = ms(time.Since(t).Nanoseconds())
	}
	spoolMS, err := timeQuiet(p.reps(3, 1), func() error {
		_, err := wal.SpoolDataset(id(0), p.in.prob)
		return err
	})
	if err != nil {
		return err
	}
	iters := p.reps(1000, 10)
	t := time.Now()
	for i := range iters {
		if err := wal.LogIteration(id(0), i+1, 1); err != nil {
			return err
		}
	}
	p.res.set("store.log_submit_ms_p50", median(submitMS))
	p.res.set("store.spool_dataset_ms", spoolMS)
	p.res.set("store.log_iteration_us", float64(time.Since(t).Nanoseconds())/1e3/float64(iters))
	p.res.set("store.syncs_per_job", p.syncsPerJob)
	p.res.set("store.wal_bytes_per_job", p.walPerJob)
	return nil
}

// jobs drives jobs.Service directly — no HTTP — once on store.Mem and
// once on a WAL, with the serial job the httpapi probe also uses, and
// sets what it measures against solver.Reconstruct running the same
// iterations alone.
func (p *prober) jobs() error {
	solverMS, err := timeQuiet(p.reps(3, 1), func() error {
		_, err := reconstruct(p.ctx, "serial", p.in.prob, p.jobIters(), 1)
		return err
	})
	if err != nil {
		return err
	}
	n := p.reps(8, 1)
	mem, _, err := p.jobsOn(nil, n)
	if err != nil {
		return err
	}
	wal, err := store.OpenWAL(store.WALConfig{Dir: filepath.Join(p.dir, "jobs-probe-state")})
	if err != nil {
		return err
	}
	defer wal.Close()
	before := wal.Stats()
	dur, st, err := p.jobsOn(wal, n)
	if err != nil {
		return err
	}
	after := wal.Stats()
	p.syncsPerJob = float64(after.Syncs-before.Syncs) / float64(n)
	p.walPerJob = float64(after.WALBytes-before.WALBytes) / float64(n)
	p.res.set("jobs.overhead_ms_mem", median(mem.warm())-solverMS)
	p.res.set("jobs.overhead_ms_wal", median(dur.warm())-solverMS)
	p.res.set("jobs.queue_wait_ms_p50", median(dur.queued))
	p.res.set("jobs.submit_to_done_ms_max", slices.Max(dur.total))
	p.res.set("jobs.first_job_ratio", dur.total[0]/median(dur.warm()))
	p.res.set("jobs.prediction_abs_err_pct", st.Prediction.MeanAbsErrorPct)
	return nil
}

type jobTimes struct{ total, queued []float64 } // ms, in submission order

// warm is every job's total but the first's on its fresh service (all
// there is, when a scaled-down probe ran a single job).
func (j *jobTimes) warm() []float64 {
	if len(j.total) > 1 {
		return j.total[1:]
	}
	return j.total
}

// jobsOn runs n serial jobs one after another on a fresh service over
// the given store (nil: store.Mem).
func (p *prober) jobsOn(st store.Store, n int) (*jobTimes, jobs.Status, error) {
	cfg := jobs.Config{Workers: 2, SpoolDir: filepath.Join(p.dir, fmt.Sprintf("jobs-probe-spool-%t", st != nil))}
	if st != nil {
		cfg.Store = st
	}
	svc, err := jobs.NewService(cfg)
	if err != nil {
		return nil, jobs.Status{}, err
	}
	defer svc.Shutdown()
	out := &jobTimes{}
	for range n {
		t := time.Now()
		j, err := svc.Submit(p.in.prob, jobs.Params{Algorithm: "serial", Iterations: p.jobIters(), StepSize: stepSize})
		if err != nil {
			return nil, jobs.Status{}, err
		}
		events, cancel := j.Subscribe(0)
		for range events { // closes at the terminal state
		}
		cancel()
		info := j.Info(0)
		if info.State != client.StateDone {
			return nil, jobs.Status{}, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
		}
		out.total = append(out.total, ms(info.Finished.Sub(t).Nanoseconds()))
		out.queued = append(out.queued, ms(info.Started.Sub(info.Created).Nanoseconds()))
	}
	return out, svc.Status(), nil
}

// service brings up the full stack once — WAL, /v1 handler, four grid
// ranks — and runs the httpapi, grid and stream probes through the
// client SDK.
func (p *prober) service() error {
	st, err := startStack(filepath.Join(p.dir, "probe-stack"), stackConfig{wal: true, grid: true, workers: 2})
	if err != nil {
		return err
	}
	defer st.stop()
	for _, fn := range []func(*stack) error{p.httpapi, p.grid, p.stream} {
		if err := fn(st); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) httpapi(st *stack) error {
	req := client.SubmitRequest{Algorithm: "serial", Iterations: p.jobIters(), StepSize: stepSize}
	n := p.reps(8, 1)
	submitMS, lagMS := make([]float64, n), make([]float64, n)
	var last *jobRun
	for i := range n {
		run, err := st.runJob(p.ctx, req, p.in.dataset)
		if err != nil {
			return err
		}
		if run.job.State != client.StateDone {
			return fmt.Errorf("job %s ended %s: %s", run.job.ID, run.job.State, run.job.Error)
		}
		submitMS[i] = ms(run.t1.Sub(run.t0).Nanoseconds())
		lagMS[i] = ms(run.t2.Sub(run.job.Finished).Nanoseconds())
		traceJob(p.tr, &phase{}, run)
		last = run
	}
	getMS, err := timeEach(p.reps(30, 3), func() error {
		_, err := st.cl.Get(p.ctx, last.job.ID)
		return err
	})
	if err != nil {
		return err
	}
	var objectBytes int
	objectMS, err := timeQuiet(p.reps(5, 1), func() error {
		b, err := st.object(p.ctx, last.job.ID)
		objectBytes = len(b)
		return err
	})
	if err != nil {
		return err
	}
	p.res.set("httpapi.submit_ms_p50", median(submitMS))
	p.res.set("httpapi.upload_mb_per_s", float64(len(p.in.dataset))/1e6/median(submitMS)*1e3)
	p.res.set("httpapi.get_ms_p50", median(getMS))
	p.res.set("httpapi.object_mb_per_s", float64(objectBytes)/1e6/objectMS*1e3)
	p.res.set("httpapi.notify_lag_ms_p50", median(lagMS))
	return nil
}

// grid compares whole jobs: the same gd spec on the four grid ranks
// and in-process, once short (set-up dominates) and once long
// (iterations dominate), with the hub's counters read before and after.
func (p *prober) grid(st *stack) error {
	req := client.SubmitRequest{
		Algorithm: "gd", Iterations: p.setupIters(), StepSize: stepSize,
		MeshRows: meshRows, MeshCols: meshCols, RoundsPerIteration: p.w.rounds,
	}
	jobMS := func(req client.SubmitRequest) (float64, error) {
		return timeQuiet(p.reps(3, 1), func() error {
			run, err := st.runJob(p.ctx, req, p.in.dataset)
			if err != nil {
				return err
			}
			if run.job.State != client.StateDone {
				return fmt.Errorf("job %s ended %s: %s", run.job.ID, run.job.State, run.job.Error)
			}
			traceJob(p.tr, &phase{}, run)
			return nil
		})
	}
	localMS, err := jobMS(req)
	if err != nil {
		return err
	}
	req.Grid = true
	out0, _, err := gridCounters(p.ctx, st)
	if err != nil {
		return err
	}
	gridMS, err := jobMS(req)
	if err != nil {
		return err
	}
	out1, routed1, err := gridCounters(p.ctx, st)
	if err != nil {
		return err
	}
	setupJobs := float64(p.reps(3, 1))

	req.Iterations = p.engineIters()
	req.CheckpointEvery = req.Iterations
	long, err := st.runJob(p.ctx, req, p.in.dataset)
	if err != nil {
		return err
	}
	if long.job.State != client.StateDone {
		return fmt.Errorf("job %s ended %s: %s", long.job.ID, long.job.State, long.job.Error)
	}
	traceJob(p.tr, &phase{}, long)
	_, routed2, err := gridCounters(p.ctx, st)
	if err != nil {
		return err
	}
	var gaps []float64
	for i := 1; i < len(long.iterAt); i++ {
		gaps = append(gaps, ms(long.iterAt[i].Sub(long.iterAt[i-1]).Nanoseconds()))
	}
	if len(gaps) == 0 { // a two-iteration job whose events were dropped
		gaps = []float64{ms(long.job.Finished.Sub(long.job.Started).Nanoseconds()) / float64(req.Iterations)}
	}
	routed, iters := float64(routed2-routed1), float64(req.Iterations)
	p.res.set("grid.iter_overhead_ms", quiet(gaps)-p.gdIterMS)
	p.res.set("grid.setup_overhead_ms", gridMS-localMS)
	p.res.set("grid.setup_bytes_per_rank", float64(out1-out0)/gridRanks/setupJobs)
	p.res.set("grid.bytes_routed_per_iter", routed/iters)
	p.res.set("transport.relay_factor", routed/(p.gdBytesIter*iters))
	return nil
}

// gridCounters reads /v1/grid and /v1/status: the bytes the hub has
// written to its workers and the bytes it has routed between them.
func gridCounters(ctx context.Context, st *stack) (workerOut, routed int64, err error) {
	gs, err := st.cl.Grid(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, w := range gs.Workers {
		workerOut += w.BytesOut
	}
	status, err := st.cl.Status(ctx)
	if err != nil {
		return 0, 0, err
	}
	if status.Grid != nil {
		routed = status.Grid.BytesRouted
	}
	return workerOut, routed, nil
}

func (p *prober) stream(st *stack) error {
	prob := p.in.prob
	frames := dataio.FramesFromProblem(prob)
	frames = frames[:min(len(frames), p.reps(streamProbeMax, streamChunk))]
	d, err := newStreamFeed(p.w, p.in, frames)
	if err != nil {
		return err
	}
	d.st = st
	rejected0, sleep0 := st.rejected.Load(), st.retrySleepNS.Load()
	ph := &phase{}
	run, ok := d.stream(p.ctx, time.Now(), p.tr, ph, len(d.chunks))
	if !ok || ph.failed > 0 {
		return errors.New(ph.failures[0])
	}
	rejected := float64(st.rejected.Load() - rejected0)

	ingest := stream.NewIngest(math.MaxInt32)
	rounds := p.reps(200, 2)
	t := time.Now()
	for range rounds {
		if _, err := ingest.Append(frames[:min(streamChunk, len(frames))]); err != nil {
			return err
		}
	}
	appended := float64(rounds * min(streamChunk, len(frames)))

	appendP50, _, _ := ph.summarize()
	p.res.set("stream.append_ms_p50", appendP50)
	p.res.set("stream.backpressure_ratio", rejected/(rejected+float64(len(d.chunks))))
	p.res.set("stream.retry_sleep_s", float64(st.retrySleepNS.Load()-sleep0)/1e9)
	p.res.set("stream.folds", float64(run.final.Folds))
	p.res.set("stream.iters_while_open", float64(run.closed.Iter))
	p.res.set("stream.eof_to_done_s", run.doneAt.Sub(run.eofAt).Seconds())
	p.res.set("stream.ingest_append_frames_per_s", appended/time.Since(t).Seconds())
	return nil
}
