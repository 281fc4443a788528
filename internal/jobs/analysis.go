package jobs

// The analysis layer: everything that turns the service's raw telemetry
// (spans, per-rank stats, WAL counters) into operational answers.
//
//   - predicted-vs-actual: at submission the job's geometry is fed into
//     internal/perfmodel — the paper's Table II/III runtime predictor —
//     seeded either with the Summit calibration or, once the service has
//     observed real iterations, with a live throughput EWMA. The
//     prediction rides the job wire object and the trace; at completion
//     the actual/predicted ratio lands in a histogram and the running
//     error summary, closing the self-calibration loop.
//   - straggler detection: per-iteration per-rank compute/comm deltas
//     (gradsync OnRankStats, already on the wire for grid jobs) fold
//     into a per-job imbalance tracker; ranks that are persistently
//     slow are flagged on the wire object, annotated in the trace, and
//     every completed per-iteration row feeds the imbalance histogram.
//   - fleet status: Service.Status rolls queue depth, pool and grid
//     occupancy, WAL counters and the prediction-error summary into one
//     GET /v1/status document.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/cluster"
	"ptychopath/internal/engine"
	"ptychopath/internal/obs"
	"ptychopath/internal/obs/flight"
	"ptychopath/internal/perfmodel"
	"ptychopath/internal/solver"
)

// Prediction is the perfmodel-derived runtime estimate published on the
// job object at submission: total seconds and its compute/wait/comm
// split per Fig 7b, from the paper's Summit calibration ("model") or
// the live throughput EWMA ("calibrated").
type Prediction = client.Prediction

// ewmaAlpha is the smoothing factor of the service's live estimates:
// heavy enough smoothing to ride out checkpoint iterations, light
// enough to track a real regime change within a job.
const ewmaAlpha = 0.2

// ewma is an exponentially weighted moving average of positive finite
// observations, kept for the service's lifetime. Two instances exist:
// the effective per-rank flop/s observed at iteration boundaries (the
// live calibration of runtime predictions) and finished jobs'
// wall-clock seconds (the Retry-After fallback for jobs with no
// prediction and no observed iterations — streaming jobs, cold starts).
type ewma struct {
	mu sync.Mutex
	v  float64
	n  int // observations folded in
}

func (e *ewma) observe(x float64) {
	if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return
	}
	e.mu.Lock()
	if e.n == 0 {
		e.v = x
	} else {
		e.v += ewmaAlpha * (x - e.v)
	}
	e.n++
	e.mu.Unlock()
}

// value returns the current estimate and how many observations back it.
func (e *ewma) value() (float64, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v, e.n
}

// predStats summarizes prediction accuracy across finished jobs for
// GET /v1/status.
type predStats struct {
	mu        sync.Mutex
	jobs      int
	sumAbsErr float64 // sum of |ratio - 1|
	last      float64
}

func (p *predStats) observe(ratio float64) {
	p.mu.Lock()
	p.jobs++
	p.sumAbsErr += math.Abs(ratio - 1)
	p.last = ratio
	p.mu.Unlock()
}

func (p *predStats) summary() (jobs int, meanAbsErr, last float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs > 0 {
		meanAbsErr = p.sumAbsErr / float64(p.jobs)
	}
	return p.jobs, meanAbsErr, p.last
}

// predict derives a runtime estimate for a batch submission from its
// geometry. The job's probe window, scan and slice stack become a
// perfmodel.Config dataset; the calibration is the paper's Summit fit
// until the service has observed real iterations, after which the live
// throughput EWMA replaces it (pixel sizes are normalized to 1 pm/px —
// the predictor only ever sees halo widths in the same unit). Returns
// the prediction plus the per-iteration flop count and rank width the
// calibration loop needs; nil for empty or streaming datasets.
func (s *Service) predict(prob *solver.Problem, p Params) (*Prediction, float64, int) {
	if len(prob.Pattern.Locations) == 0 {
		return nil, 0, 0
	}
	locs := len(prob.Pattern.Locations)
	b := prob.ImageBounds()
	scanRows, scanCols := cluster.MostSquareGrid(locs)
	spec := cluster.DatasetSpec{
		Name:      "live",
		DetectorN: prob.WindowN,
		Locations: locs,
		ScanCols:  scanCols, ScanRows: scanRows,
		ImageW: b.W(), ImageH: b.H(),
		Slices:      prob.Slices,
		PixelSizePM: 1,
	}
	cal := cluster.DefaultCalibration()
	source := "model"
	if f, n := s.throughput.value(); n > 0 {
		// Live calibration: the EWMA already bakes in cache behavior and
		// per-iteration overhead of THIS machine, so the Summit-shaped
		// correction terms are zeroed rather than applied twice.
		cal.BaseFlops = f
		cal.CacheCurve = nil
		cal.IterOverheadSec = 0
		source = "calibrated"
	}
	// The prediction's decomposition is the mesh the engine will run on
	// (one rank for the serial algorithm); validate has already rejected
	// a mesh the engine would.
	run := p.spec()
	if p.Algorithm == "serial" {
		run.MeshRows, run.MeshCols = 1, 1
	}
	mesh, err := engine.NewMesh(prob, run)
	if err != nil {
		return nil, 0, 0
	}
	ranks := mesh.NumTiles()
	halo := float64(mesh.Halo)
	cfg := perfmodel.Config{
		Machine:       cluster.Summit(),
		Cal:           cal,
		Spec:          spec,
		Iterations:    p.Iterations,
		SimIterations: 2,
		HaloGDPM:      halo,
		HaloHVEPM:     halo,
		HVEExtraRows:  engine.HVEExtraRows,
	}
	var row perfmodel.Row
	switch p.Algorithm {
	case "hve":
		row = cfg.HVERow(ranks)
		if row.NA {
			// Tiles too small for the HVE constraint at this scale; the
			// GD schedule is the closest defined estimate.
			row = cfg.GDRow(ranks)
		}
	default:
		row = cfg.GDRow(ranks)
	}
	pred := &Prediction{
		Seconds:        row.RuntimeMin * 60,
		ComputeSeconds: row.Breakdown.ComputeMin * 60,
		WaitSeconds:    row.Breakdown.WaitMin * 60,
		CommSeconds:    row.Breakdown.CommMin * 60,
		Source:         source,
		Ranks:          ranks,
	}
	return pred, float64(locs) * spec.FlopsPerLocation(), ranks
}

// attachAnalysis arms a constructed batch job with its prediction, the
// calibration inputs and (for decomposed algorithms) the straggler
// tracker. Must run before the job is enqueued — the fields are
// immutable once a worker can pick it up.
func (s *Service) attachAnalysis(j *Job) {
	if j.streaming {
		return
	}
	j.pred, j.flopsPerIter, j.predRanks = s.predict(j.data.geom, j.params)
	if j.params.Algorithm != "serial" {
		j.tracker = newRankTracker(j.params.MeshRows * j.params.MeshCols)
	}
	if j.pred != nil {
		j.rec.Record(flight.Event{Kind: "prediction",
			Detail: fmt.Sprintf("%.2fs over %d ranks (%s)", j.pred.Seconds, j.pred.Ranks, j.pred.Source)})
	}
}

// observeIteration feeds one iteration-boundary duration into the
// latency histogram and, when the job carries calibration inputs, folds
// the implied per-rank throughput into the live EWMA.
func (s *Service) observeIteration(j *Job, d time.Duration) {
	s.hist.iteration.Observe(d)
	if d <= 0 || j.flopsPerIter <= 0 || j.predRanks <= 0 {
		return
	}
	s.throughput.observe(j.flopsPerIter / d.Seconds() / float64(j.predRanks))
}

// ratioDuration encodes a dimensionless ratio on a histogram's seconds
// axis (obs.Histogram buckets observations by seconds; the ratio
// histograms declare ratio-valued bounds).
func ratioDuration(r float64) time.Duration {
	return time.Duration(r * float64(time.Second))
}

// Straggler thresholds: a rank is slow in an iteration when its compute
// exceeds slowFactor x the rank mean, and a persistent straggler when
// slow in more than half of at least minStragglerRows complete rows.
const (
	slowFactor       = 1.5
	minStragglerRows = 2
)

// rankTracker accumulates per-iteration per-rank compute/comm splits
// for one job and reduces them to imbalance ratios and persistent-
// straggler verdicts. Rank stats arrive on engine or hub goroutines;
// everything is guarded by one mutex. A nil tracker no-ops (serial and
// streaming jobs).
type rankTracker struct {
	mu      sync.Mutex
	ranks   int
	pending map[int][]int64 // iter → per-rank computeNS (-1 unseen)
	seen    map[int]int     // iter → ranks reported
	rows    int             // iterations with a complete per-rank row
	slow    []int           // per-rank count of slow iterations
	compute []int64         // cumulative per-rank compute ns
	comm    []int64         // cumulative per-rank comm ns
	sumR    float64         // sum of per-row max/mean ratios
	maxR    float64
}

func newRankTracker(ranks int) *rankTracker {
	if ranks <= 1 {
		return nil // nothing to compare against
	}
	return &rankTracker{
		ranks:   ranks,
		pending: make(map[int][]int64),
		seen:    make(map[int]int),
		slow:    make([]int, ranks),
		compute: make([]int64, ranks),
		comm:    make([]int64, ranks),
	}
}

// observe folds one rank's iteration split in. When the observation
// completes a full per-rank row, it returns that row's max/mean compute
// ratio and true, so the caller can feed the imbalance histogram live.
func (t *rankTracker) observe(rank, iter int, computeNS, commNS int64) (float64, bool) {
	if t == nil || rank < 0 || rank >= t.ranks {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compute[rank] += computeNS
	t.comm[rank] += commNS
	row := t.pending[iter]
	if row == nil {
		row = make([]int64, t.ranks)
		for i := range row {
			row[i] = -1
		}
		t.pending[iter] = row
	}
	if row[rank] < 0 {
		t.seen[iter]++
	}
	row[rank] = computeNS
	if t.seen[iter] < t.ranks {
		return 0, false
	}
	delete(t.pending, iter)
	delete(t.seen, iter)
	var sum, max int64
	for _, c := range row {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum <= 0 {
		return 0, false
	}
	mean := float64(sum) / float64(t.ranks)
	ratio := float64(max) / mean
	t.rows++
	t.sumR += ratio
	if ratio > t.maxR {
		t.maxR = ratio
	}
	for r, c := range row {
		if float64(c) > slowFactor*mean {
			t.slow[r]++
		}
	}
	return ratio, true
}

// imbalanceSummary is the tracker's end-of-job reduction.
type imbalanceSummary struct {
	Rows       int     // complete per-rank iteration rows observed
	MeanRatio  float64 // mean per-row max/mean compute ratio
	MaxRatio   float64
	Stragglers []int // ranks slow in more than half the rows
	Slow       []int // per-rank slow-iteration counts
	ComputeNS  []int64
	CommNS     []int64
}

func (t *rankTracker) summary() imbalanceSummary {
	if t == nil {
		return imbalanceSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := imbalanceSummary{Rows: t.rows, MaxRatio: t.maxR}
	if t.rows > 0 {
		s.MeanRatio = t.sumR / float64(t.rows)
	}
	if t.rows >= minStragglerRows {
		for r, n := range t.slow {
			if n*2 > t.rows {
				s.Stragglers = append(s.Stragglers, r)
			}
		}
	}
	s.Slow = append([]int(nil), t.slow...)
	s.ComputeNS = append([]int64(nil), t.compute...)
	s.CommNS = append([]int64(nil), t.comm...)
	return s
}

// recordRankStats lands one rank's per-iteration split in the job
// timeline and the imbalance tracker; each completed per-rank row feeds
// the imbalance histogram as soon as its last rank reports.
func (s *Service) recordRankStats(j *Job, rank, iter int, computeNS, commNS int64) {
	j.recordRankTiming(rank, iter, computeNS, commNS)
	if ratio, full := j.tracker.observe(rank, iter, computeNS, commNS); full {
		s.hist.imbalance.Observe(ratioDuration(ratio))
	}
}

// finishJob closes out a pool-executed job: the analysis pass runs
// first so its verdicts are already on the wire object and in the trace
// when the terminal state event fires, then the terminal transition and
// the durable/structured finish record.
func (s *Service) finishJob(j *Job, state State, err error) {
	s.analyze(j)
	j.mu.Lock()
	actual := j.actualSeconds
	j.mu.Unlock()
	if state == Done {
		// Finished wall-clock feeds the fleet runtime EWMA — the
		// Retry-After fallback for jobs nothing else is known about.
		s.runtime.observe(actual)
	}
	s.releaseTenant(j, actual)
	j.finish(state, err)
	s.logFinish(j, state, err)
}

// analyze reduces the job's telemetry to verdicts at the end of its
// run: actual runtime vs prediction (histogram + status summary +
// predicted-* trace spans, drawn over the actual timeline so the Chrome
// view overlays them) and the straggler reduction (wire fields, one
// "straggler" span per flagged rank, a flight-recorder entry). No-ops
// for jobs that never started — their telemetry is empty.
func (s *Service) analyze(j *Job) {
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	if started.IsZero() {
		return
	}
	actual := time.Since(started).Seconds()
	sum := j.tracker.summary()

	var ratio float64
	if j.pred != nil && j.pred.Seconds > 0 && actual > 0 {
		ratio = actual / j.pred.Seconds
	}
	j.mu.Lock()
	j.actualSeconds = actual
	j.predErrRatio = ratio
	if sum.Rows > 0 {
		j.imbalance = sum.MeanRatio
		j.stragglers = sum.Stragglers
	}
	j.mu.Unlock()

	if j.pred != nil {
		for _, ps := range []struct {
			name string
			sec  float64
		}{
			{"predicted-runtime", j.pred.Seconds},
			{"predicted-compute", j.pred.ComputeSeconds},
			{"predicted-wait", j.pred.WaitSeconds},
			{"predicted-comm", j.pred.CommSeconds},
		} {
			j.tr.Record(ps.name, j.rootSpan, obs.RankCoordinator, obs.IterNone,
				started, time.Duration(ps.sec*float64(time.Second)))
		}
	}
	if ratio > 0 {
		s.hist.predictionErr.Observe(ratioDuration(ratio))
		s.preds.observe(ratio)
		s.log.Info("prediction scored", "job_id", j.id, "request_id", j.RequestID(),
			"predicted_s", j.pred.Seconds, "actual_s", actual, "error_ratio", ratio)
	}
	for _, r := range sum.Stragglers {
		j.tr.Record("straggler", j.rootSpan, r, obs.IterNone,
			started, time.Duration(actual*float64(time.Second)))
		j.rec.Record(flight.Event{Kind: "straggler", Iter: sum.Rows,
			Detail: fmt.Sprintf("rank %d slow in %d/%d iterations", r, sum.Slow[r], sum.Rows)})
		s.log.Warn("straggler rank", "job_id", j.id, "request_id", j.RequestID(),
			"rank", r, "slow_iters", sum.Slow[r], "iters", sum.Rows,
			"mean_imbalance", sum.MeanRatio)
	}
}

// Status is the fleet-health roll-up served at GET /v1/status, with its
// grid, durability and prediction-accuracy blocks.
type (
	Status            = client.Status
	GridSummary       = client.GridSummary
	WALSummary        = client.WALSummary
	PredictionSummary = client.PredictionSummary
)

// Status snapshots the service's fleet health: queue depth, pool and
// grid occupancy, job-state census, WAL counters and the prediction-
// error summary, in one JSON-ready document.
func (s *Service) Status() Status {
	s.mu.Lock()
	depth := s.q.Len()
	policy := s.q.Policy()
	tenants := s.tenantStatusLocked()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	states := map[string]int{
		Queued.String(): 0, Running.String(): 0, Done.String(): 0,
		Failed.String(): 0, Cancelled.String(): 0,
	}
	for _, j := range jobs {
		states[j.State().String()]++
	}
	running := int(s.met.running.Load())
	idle := s.cfg.Workers - running
	if idle < 0 {
		idle = 0
	}
	st := Status{
		Time:          time.Now(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		WorkersIdle:   idle,
		QueueDepth:    depth,
		Jobs:          states,
		SchedPolicy:   policy,
		Tenants:       tenants,
	}
	if s.grid != nil {
		workers := s.GridWorkers()
		busy := 0
		for _, w := range workers {
			if w.Busy {
				busy++
			}
		}
		st.Grid = &GridSummary{
			Addr:        s.grid.Addr().String(),
			Workers:     workers,
			Busy:        busy,
			Sessions:    s.grid.SessionsStarted(),
			BytesRouted: s.grid.BytesRouted(),
		}
	}
	if s.store.Durable() {
		ws := s.store.Stats()
		st.WAL = &WALSummary{
			Records: ws.Records, Syncs: ws.Syncs, Compactions: ws.Compactions,
			Bytes: ws.WALBytes, Errors: s.met.walErrors.Load(),
			ReplayRecords: s.replayRecords, ReplayTorn: s.replayTorn,
		}
	}
	pj, mean, last := s.preds.summary()
	flops, iters := s.throughput.value()
	st.Prediction = PredictionSummary{
		Jobs: pj, MeanAbsErrorPct: mean * 100, LastErrorRatio: last,
		CalibratedFlops: flops, CalibrationIters: iters,
	}
	return st
}

// FlightEvents returns the job's flight-recorder tail, oldest first.
func (j *Job) FlightEvents() []flight.Event {
	return j.rec.Events()
}
