package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/obs"
)

// phase is what one closed loop measured.
type phase struct {
	start time.Time
	// ops holds one entry per completed operation. (An SSE feed that
	// drops an iteration event loses that entry, nothing else.)
	ops     []op
	batches []batch
	// attempted counts the things whose outcome was checked
	// (reconstructions, jobs, chunks); failed those that were wrong.
	attempted, failed int
	failures          []string
	// finalCost is the last cost of the last complete operation.
	finalCost float64
	// rootNS is the wall time of the traced operations and partsNS the
	// sum of the parts each was split into (bench.reconcile_ratio).
	rootNS, partsNS int64
}

// op is one completed operation: when it ended and how long it took.
type op struct {
	end time.Time
	ms  float64
}

// batch is a run of operations that belong together — one
// reconstruction's iterations, one stream's chunks — and the wall time
// they took as a whole, set-up and tail included.
type batch struct {
	end      int // index in ops after the batch's last operation
	from, to time.Time
}

// more reports whether the loop should start another operation: always
// the first, then until the deadline or — where the workload sets one —
// the operation cap.
func (p *phase) more(deadline time.Time, maxOps int) bool {
	if len(p.ops) == 0 && p.attempted == 0 {
		return true
	}
	return time.Now().Before(deadline) && (maxOps == 0 || len(p.ops) < maxOps)
}

func (p *phase) done(end time.Time, took time.Duration) {
	p.ops = append(p.ops, op{end, ms(took.Nanoseconds())})
}

// Summary statistics are taken over the batches a loop's operations come
// in — a reconstruction's iterations, a grid job's iterations, a
// stream's chunks — and are the quiet quartile (see stats.go) of the
// batches' own figures, not one figure over the whole run. Batches are
// the loop's own periods so that each holds the same mix of cheap and
// dear operations. A loop whose operation is a whole job marks no
// batches and is summarised as one.

// cut closes a batch: the operations recorded since the last cut, which
// took from..to as a whole.
func (p *phase) cut(from, to time.Time) {
	p.batches = append(p.batches, batch{len(p.ops), from, to})
}

// summarize takes each batch's latency percentiles and its throughput
// and returns the quiet quartile of each over the batches. NaN when
// nothing completed.
func (p *phase) summarize() (p50, p90, perSecond float64) {
	ops, batches := p.ops, p.batches
	if len(ops) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(batches) == 0 {
		ops = append([]op(nil), ops...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].end.Before(ops[j].end) })
		batches = []batch{{len(ops), p.start, ops[len(ops)-1].end}}
	}
	var p50s, p90s, rates []float64
	lo := 0
	for _, b := range batches {
		if b.end == lo {
			continue
		}
		lat := make([]float64, 0, b.end-lo)
		for _, o := range ops[lo:b.end] {
			lat = append(lat, o.ms)
		}
		p50s = append(p50s, percentile(lat, 50))
		p90s = append(p90s, percentile(lat, 90))
		rates = append(rates, float64(len(lat))/b.to.Sub(b.from).Seconds())
		lo = b.end
	}
	return quiet(p50s), quiet(p90s), percentile(rates, 100-quietQuartile)
}

// judge counts one checked outcome; a non-empty reason fails it.
func (p *phase) judge(reason string) {
	p.attempted++
	if reason == "" {
		return
	}
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, reason)
	}
}

func (p *phase) merge(q *phase) {
	p.ops = append(p.ops, q.ops...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
	p.finalCost = q.finalCost
	p.rootNS += q.rootNS
	p.partsNS += q.partsNS
}

// driver is a workload brought up and warmed: loop runs its closed
// loop until the deadline and always completes at least one operation.
// A non-nil trace receives one span tree per operation.
type driver interface {
	loop(ctx context.Context, deadline time.Time, tr *obs.Trace) *phase
	close()
}

// setup generates the workload's inputs from the seed, brings up what
// it runs on, runs one untimed warm-up operation and returns the ready
// driver. Everything here is what setup_s measures.
func (w *workload) setup(ctx context.Context, seed int64, scale float64, dir string) (driver, *inputs, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, nil, err
	}
	var d driver
	switch w.kind {
	case kindLibrary:
		d, err = newLibraryDriver(ctx, w, in, scale)
	case kindJobs:
		d, err = newJobsDriver(ctx, w, in, scale, dir)
	case kindRelay:
		d, err = newRelayDriver(ctx, w, in, scale, dir)
	case kindStream:
		d, err = newStreamDriver(ctx, w, in, scale, dir)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return d, in, nil
}

// --- library workloads ------------------------------------------------

type libraryDriver struct {
	w     *workload
	in    *inputs
	iters int
}

func newLibraryDriver(ctx context.Context, w *workload, in *inputs, scale float64) (driver, error) {
	d := &libraryDriver{w: w, in: in, iters: scaled(w.iters, scale, 2)}
	if _, err := reconstruct(ctx, w.alg, in.prob, 2, w.rounds); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func (d *libraryDriver) close() {}

func (d *libraryDriver) loop(ctx context.Context, deadline time.Time, tr *obs.Trace) *phase {
	p := &phase{start: time.Now()}
	// Whole reconstructions only: each allocates its workspace once, so
	// a run cut short would skew both the iteration gaps and the
	// allocation per iteration.
	for p.more(deadline, d.w.maxOps) {
		rec, err := reconstruct(ctx, d.w.alg, d.in.prob, d.iters, d.w.rounds)
		if err != nil {
			p.judge(err.Error())
			break
		}
		prev := rec.start
		for _, t := range rec.iterEnd {
			p.done(t, t.Sub(prev))
			prev = t
		}
		p.cut(rec.start, rec.end)
		p.judge(checkCosts(rec.costs, d.iters, d.in.reference))
		if len(rec.costs) > 0 {
			p.finalCost = rec.costs[len(rec.costs)-1]
		}
		traceReconstruction(tr, p, rec)
	}
	return p
}

// traceReconstruction records one reconstruction: the call as the root
// span, one child per iteration (from the OnIteration timestamps) and,
// for gd, each rank's compute and communication totals (from
// Result.PerRank*NS) laid end to end from the start of the call.
func traceReconstruction(tr *obs.Trace, p *phase, rec *reconstruction) {
	if tr == nil {
		return
	}
	root := tr.BeginAt("reconstruct", 0, obs.RankCoordinator, obs.IterNone, rec.start)
	tr.EndAt(root, rec.end)
	prev := rec.start
	for i, t := range rec.iterEnd {
		tr.Record("iteration", root, obs.RankCoordinator, i, prev, t.Sub(prev))
		p.partsNS += t.Sub(prev).Nanoseconds()
		prev = t
	}
	p.rootNS += rec.end.Sub(rec.start).Nanoseconds()
	for rank, c := range rec.rankComputeNS {
		tr.Record("compute", root, rank, obs.IterNone, rec.start, time.Duration(c))
		tr.Record("comm", root, rank, obs.IterNone, rec.start.Add(time.Duration(c)), time.Duration(rec.rankCommNS[rank]))
	}
}

// --- job workloads ----------------------------------------------------

type jobsDriver struct {
	w   *workload
	in  *inputs
	st  *stack
	req client.SubmitRequest
	// wantObject, for grid jobs, is the object the same spec produced
	// in-process; one grid job per phase must serve identical bytes.
	wantObject []byte
}

func (w *workload) request(iters int) client.SubmitRequest {
	req := client.SubmitRequest{Algorithm: w.alg, Iterations: iters, StepSize: stepSize, Grid: w.grid}
	if w.alg != "serial" {
		req.MeshRows, req.MeshCols, req.RoundsPerIteration = meshRows, meshCols, w.rounds
	}
	return req
}

func newJobsDriver(ctx context.Context, w *workload, in *inputs, scale float64, dir string) (driver, error) {
	st, err := startStack(dir, stackConfig{wal: w.wal, grid: w.grid, workers: 2})
	if err != nil {
		return nil, err
	}
	d := &jobsDriver{w: w, in: in, st: st, req: w.request(scaled(w.iters, scale, 1))}
	if w.grid {
		local := d.req
		local.Grid = false
		run, err := st.runJob(ctx, local, in.dataset)
		if err == nil {
			d.wantObject, err = st.object(ctx, run.job.ID)
		}
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("in-process reference job: %w", err)
		}
	}
	if _, err := st.runJob(ctx, d.req, in.dataset); err != nil {
		st.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func (d *jobsDriver) close() { d.st.stop() }

func (d *jobsDriver) loop(ctx context.Context, deadline time.Time, tr *obs.Trace) *phase {
	parts := make([]*phase, d.w.clients)
	var wg sync.WaitGroup
	p := &phase{start: time.Now()}
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[c] = d.client(ctx, deadline, tr, c == 0)
		}()
	}
	wg.Wait()
	for _, q := range parts {
		p.merge(q)
	}
	return p
}

// client is one closed-loop client: submit, wait for the terminal
// event, check, repeat.
func (d *jobsDriver) client(ctx context.Context, deadline time.Time, tr *obs.Trace, checksObject bool) *phase {
	p := &phase{}
	for p.more(deadline, d.w.maxOps/d.w.clients) {
		first := len(p.ops) == 0
		run, err := d.st.runJob(ctx, d.req, d.in.dataset)
		if err != nil {
			p.judge(err.Error())
			break
		}
		p.done(run.t2, run.t2.Sub(run.t0))
		reason := checkJob(run.job, d.req.Iterations, d.in.reference)
		if reason == "" && first && checksObject && d.wantObject != nil {
			got, err := d.st.object(ctx, run.job.ID)
			if err != nil {
				reason = "object: " + err.Error()
			} else {
				reason = checkObject(got, d.wantObject)
			}
		}
		p.judge(reason)
		p.finalCost = run.job.Cost
		traceJob(tr, p, run)
	}
	return p
}

// checkJob returns why a finished job is wrong, or "".
func checkJob(job *client.Job, iters int, reference []float64) string {
	if job.State != client.StateDone {
		return fmt.Sprintf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if reason := checkCosts(job.CostHistory, iters, reference); reason != "" {
		return fmt.Sprintf("job %s: %s", job.ID, reason)
	}
	return ""
}

// traceJob records one job: submit-to-terminal-event as the root span,
// the client's Submit call and its wait on the event feed as children,
// and — from the timestamps the job itself reports — its queue wait,
// its run, and the lag between finishing and the client hearing of it.
// The reconciliation sums the parts that tile the root: Submit up to the
// job's creation (a short job is done before Submit returns, so the
// whole call would count its run twice), queue wait, run, notify lag.
func traceJob(tr *obs.Trace, p *phase, run *jobRun) {
	if tr == nil {
		return
	}
	root := tr.BeginAt("job", 0, obs.RankCoordinator, obs.IterNone, run.t0)
	tr.EndAt(root, run.t2)
	j := run.job
	tr.Record("client.Submit", root, obs.RankCoordinator, obs.IterNone, run.t0, run.t1.Sub(run.t0))
	tr.Record("client.Events", root, obs.RankCoordinator, obs.IterNone, run.t1, run.t2.Sub(run.t1))
	tr.Record("queue-wait", root, 0, obs.IterNone, j.Created, j.Started.Sub(j.Created))
	tr.Record("run", root, 0, obs.IterNone, j.Started, j.Finished.Sub(j.Started))
	tr.Record("notify", root, 0, obs.IterNone, j.Finished, run.t2.Sub(j.Finished))
	prev := j.Started
	for i, t := range run.iterAt {
		tr.Record("iteration", root, 1, i, prev, t.Sub(prev))
		prev = t
	}
	p.rootNS += run.t2.Sub(run.t0).Nanoseconds()
	p.partsNS += (j.Created.Sub(run.t0) + j.Started.Sub(j.Created) + j.Finished.Sub(j.Started) + run.t2.Sub(j.Finished)).Nanoseconds()
}

// --- grid-relay -------------------------------------------------------

type relayDriver struct {
	w   *workload
	in  *inputs
	st  *stack
	req client.SubmitRequest
}

func newRelayDriver(ctx context.Context, w *workload, in *inputs, scale float64, dir string) (driver, error) {
	st, err := startStack(dir, stackConfig{wal: w.wal, grid: true, workers: 2})
	if err != nil {
		return nil, err
	}
	iters := scaled(w.iters, scale, 2)
	d := &relayDriver{w: w, in: in, st: st, req: w.request(iters)}
	d.req.CheckpointEvery = iters
	warm := d.req
	warm.Iterations, warm.CheckpointEvery = 2, 2
	if _, err := st.runJob(ctx, warm, in.dataset); err != nil {
		st.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

func (d *relayDriver) close() { d.st.stop() }

func (d *relayDriver) loop(ctx context.Context, deadline time.Time, tr *obs.Trace) *phase {
	p := &phase{start: time.Now()}
	for p.more(deadline, d.w.maxOps) {
		run, err := d.st.runJob(ctx, d.req, d.in.dataset)
		if err != nil {
			p.judge(err.Error())
			break
		}
		// An operation is the gap between two iteration events. The
		// first event's gap holds the job's lease and SETUP as well;
		// one sample in a hundred moves no percentile, and the batch's
		// throughput pays for them either way.
		prev := run.t0
		for _, t := range run.iterAt {
			p.done(t, t.Sub(prev))
			prev = t
		}
		p.cut(run.t0, run.t2)
		p.judge(checkJob(run.job, d.req.Iterations, d.in.reference))
		p.finalCost = run.job.Cost
		traceJob(tr, p, run)
	}
	return p
}

// --- stream-feed ------------------------------------------------------

// feedRetryCap caps the feeder's sleep after a 429. The server's
// Retry-After is never below a second, so honouring it leaves room for
// nine sleeps in a ten-second run and one sleep more or less moves the
// frame rate by a tenth. Capped, the feeder retries until the next fold
// makes room: the rate is then set by the engine's iteration time and
// repeats. What honouring Retry-After costs is the stream probe's
// stream.retry_sleep_s and stream.backpressure_ratio.
const feedRetryCap = 50 * time.Millisecond

type streamDriver struct {
	w       *workload
	in      *inputs
	st      *stack
	alg     string // serial or gd: a stream cannot run hve
	tail    int    // iterations after EOF
	opening []byte
	chunks  [][]byte // pre-encoded PTYCHS 'F' chunks
	frames  []int    // frames in each chunk
}

func newStreamDriver(ctx context.Context, w *workload, in *inputs, scale float64, dir string) (driver, error) {
	frames := dataio.FramesFromProblem(in.prob)
	frames = frames[:scaled(len(frames), scale, min(streamChunk, len(frames)))]
	d, err := newStreamFeed(w, in, frames)
	if err != nil {
		return nil, err
	}
	if d.st, err = startStack(dir, stackConfig{wal: w.wal, workers: 2, retryCap: feedRetryCap}); err != nil {
		return nil, err
	}
	warm := &phase{}
	if d.stream(ctx, time.Now(), nil, warm, 1); warm.failed > 0 {
		d.st.stop()
		return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return d, nil
}

// newStreamFeed pre-encodes the opening and the frame chunks: encoding
// is the detector's cost, not the service's.
func newStreamFeed(w *workload, in *inputs, frames []dataio.Frame) (*streamDriver, error) {
	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(in.prob)); err != nil {
		return nil, err
	}
	d := &streamDriver{w: w, in: in, alg: w.alg, tail: streamTail, opening: opening.Bytes()}
	if d.alg == "hve" {
		// hve assigns its redundant locations once, which a growing
		// location set contradicts; its inputs are streamed serially.
		d.alg = "serial"
	}
	var enc dataio.ChunkEncoder
	for lo := 0; lo < len(frames); lo += streamChunk {
		hi := min(lo+streamChunk, len(frames))
		var buf bytes.Buffer
		if err := enc.WriteFrameChunk(&buf, in.prob.WindowN, frames[lo:hi]); err != nil {
			return nil, err
		}
		d.chunks = append(d.chunks, buf.Bytes())
		d.frames = append(d.frames, hi-lo)
	}
	return d, nil
}

func (d *streamDriver) close() { d.st.stop() }

func (d *streamDriver) loop(ctx context.Context, deadline time.Time, tr *obs.Trace) *phase {
	p := &phase{start: time.Now()}
	for p.more(deadline, d.w.maxOps) {
		least := 1 // a stream closed without a frame is an error, not a short stream
		if len(p.ops) == 0 {
			least = len(d.chunks) // the first stream is always fed whole
		}
		if _, ok := d.stream(ctx, deadline, tr, p, least); !ok {
			break
		}
	}
	return p
}

// streamRun is what one streamed job reported beyond the phase counts.
type streamRun struct {
	closed *client.Job // summary at CloseStream: iterations run while open
	final  *client.Job
	eofAt  time.Time // CloseStream returned
	doneAt time.Time // terminal event arrived
}

// stream opens one streaming job, appends chunks flat out (the SDK
// retries every 429 after the stack's backoff) until the deadline
// passes — but at least `least` chunks — closes it and follows it to
// done. It reports false when the stack stopped answering.
func (d *streamDriver) stream(ctx context.Context, deadline time.Time, tr *obs.Trace, p *phase, least int) (*streamRun, bool) {
	req := client.SubmitRequest{Algorithm: d.alg, Iterations: d.tail, StepSize: stepSize, IngestCapacity: streamIngest}
	if d.alg != "serial" {
		req.MeshRows, req.MeshCols, req.RoundsPerIteration = meshRows, meshCols, d.w.rounds
	}
	t0 := time.Now()
	job, err := d.st.cl.SubmitStreaming(ctx, req, bytes.NewReader(d.opening))
	if err != nil {
		p.judge("open stream: " + err.Error())
		return nil, false
	}
	root := tr.BeginAt("stream", 0, obs.RankCoordinator, obs.IterNone, t0)
	tr.Record("client.SubmitStreaming", root, obs.RankCoordinator, obs.IterNone, t0, time.Since(t0))
	p.partsNS += time.Since(t0).Nanoseconds()
	sent := 0
	for i, chunk := range d.chunks {
		if i >= least && !time.Now().Before(deadline) {
			break
		}
		t := time.Now()
		ack, err := d.st.cl.AppendFrames(ctx, job.ID, chunk)
		if err != nil {
			p.judge(fmt.Sprintf("chunk %d: %v", i, err))
			return nil, false
		}
		took := time.Since(t)
		sent += d.frames[i]
		p.done(t.Add(took), took)
		reason := ""
		if ack.Total != sent {
			reason = fmt.Sprintf("chunk %d acked %d frames in total, sent %d", i, ack.Total, sent)
		}
		p.judge(reason)
		tr.Record("client.AppendFrames", root, obs.RankCoordinator, i, t, took)
		p.partsNS += took.Nanoseconds()
	}
	run := &streamRun{}
	t := time.Now()
	if run.closed, err = d.st.cl.CloseStream(ctx, job.ID); err != nil {
		p.judge("close stream: " + err.Error())
		return nil, false
	}
	run.eofAt = time.Now()
	tr.Record("client.CloseStream", root, obs.RankCoordinator, obs.IterNone, t, run.eofAt.Sub(t))
	if run.doneAt, _, err = d.st.awaitTerminal(ctx, job.ID); err == nil {
		run.final, err = d.st.cl.Get(ctx, job.ID)
	}
	if err != nil {
		p.judge(err.Error())
		return nil, false
	}
	tr.Record("tail", root, 0, obs.IterNone, run.eofAt, run.doneAt.Sub(run.eofAt))
	tr.EndAt(root, run.doneAt)
	p.rootNS += run.doneAt.Sub(t0).Nanoseconds()
	p.partsNS += (run.eofAt.Sub(t) + run.doneAt.Sub(run.eofAt)).Nanoseconds()
	p.cut(t0, run.doneAt)
	p.judge(checkStream(run.final, sent))
	p.finalCost = run.final.Cost
	return run, true
}

// checkStream returns why a finished streaming job is wrong, or "".
func checkStream(job *client.Job, sent int) string {
	switch {
	case job.State != client.StateDone:
		return fmt.Sprintf("stream %s ended %s: %s", job.ID, job.State, job.Error)
	case job.Frames != sent:
		return fmt.Sprintf("stream %s holds %d frames, sent %d", job.ID, job.Frames, sent)
	case math.IsNaN(job.Cost) || math.IsInf(job.Cost, 0):
		return fmt.Sprintf("stream %s final cost is %v", job.ID, job.Cost)
	}
	return ""
}
