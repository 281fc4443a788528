// Package jobs is the reconstruction job service: a bounded FIFO queue
// feeding a worker-pool scheduler that shards concurrent reconstructions
// across CPUs, with per-job lifecycle tracking
// (Queued→Running→Done/Failed/Cancelled), periodic OBJCKv1 checkpoints,
// live object snapshots for previews, context-based cancellation at
// iteration boundaries, and warm-start resume from the last checkpoint.
//
// The service is the operational layer the paper's pitch implies:
// reconstruction fast enough to steer a running experiment needs jobs
// that can be queued while the microscope keeps scanning, watched as
// they converge, cancelled when the operator changes plans, and resumed
// without recomputing — on a machine shared between samples.
//
// cmd/ptychoserve exposes the service over HTTP (internal/jobs/httpapi);
// the package itself is transport-agnostic and safe for concurrent use.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/obs"
	"ptychopath/internal/obs/flight"
	"ptychopath/internal/solver"
	"ptychopath/internal/stream"
)

// State is a job's lifecycle phase.
type State int

const (
	// Queued means the job is waiting in the FIFO for a worker.
	Queued State = iota
	// Running means a worker is reconstructing.
	Running
	// Done means the reconstruction completed all iterations.
	Done
	// Failed means the reconstruction returned an error.
	Failed
	// Cancelled means the job was cancelled (while queued, or mid-run
	// at an iteration boundary with a final checkpoint written).
	Cancelled
)

// String implements fmt.Stringer with the lowercase names the HTTP API
// serves.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Params configures one reconstruction job. The JSON tags are the
// shape of the WAL submit record (see marshalParams); InitialObject is
// spooled as an OBJCKv1 file and referenced by path instead.
type Params struct {
	// Algorithm is "serial", "gd" (gradient decomposition) or "hve"
	// (halo voxel exchange). Default "serial".
	Algorithm string `json:"algorithm"`
	// Iterations is the number of iterations to run. Default 20.
	Iterations int `json:"iterations"`
	// StepSize is the gradient step. Default 0.01.
	StepSize float64 `json:"step_size"`
	// MeshRows and MeshCols shape the tile mesh (parallel algorithms).
	// Default 2x2.
	MeshRows int `json:"mesh_rows,omitempty"`
	MeshCols int `json:"mesh_cols,omitempty"`
	// RoundsPerIteration is the communication frequency of the parallel
	// algorithms. Default 1.
	RoundsPerIteration int `json:"rounds_per_iteration,omitempty"`
	// IntraWorkers is how many goroutines evaluate the locations of a
	// serial run or of each gd rank; it never changes a result. 0 takes
	// the job's share of the cores for an in-process job, 1 for a grid job.
	IntraWorkers int `json:"intra_workers,omitempty"`
	// CheckpointEvery is the iteration period of OBJCKv1 checkpoints and
	// preview snapshots; 0 selects the service default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// InitialObject warm-starts the run (resume path); nil means vacuum.
	InitialObject []*grid.Complex2D `json:"-"`
	// StartIter offsets progress reporting for resumed jobs: a job that
	// resumes a run cancelled after k iterations carries StartIter k, so
	// Iter counts continue where the original left off.
	StartIter int `json:"start_iter,omitempty"`
	// Grid runs the parallel engine across registered grid-worker
	// processes (one per mesh tile) instead of in-process goroutines.
	// Requires a gd or hve algorithm and a service started with a grid
	// coordinator (Config.GridAddr); see grid.go.
	Grid bool `json:"grid,omitempty"`

	// The fields below apply to Streaming jobs only (SubmitStreaming).
	// For a streaming job, Iterations is the TAIL: how many iterations
	// run over the complete set after the stream closes.

	// FoldEvery is the number of iterations between ingest folds while
	// the stream is open. Default 1.
	FoldEvery int `json:"fold_every,omitempty"`
	// MaxIterations, when positive, bounds iterations run before the
	// stream closes (a stalled feed fails the job instead of spinning
	// forever). 0 means unlimited.
	MaxIterations int `json:"max_iterations,omitempty"`
	// IngestCapacity bounds the job's frame buffer; Append beyond it
	// returns stream.ErrIngestFull (HTTP 429). 0 selects the service
	// default.
	IngestCapacity int `json:"ingest_capacity,omitempty"`

	// RequestID is the trace context of the submission: the
	// X-Request-ID the HTTP layer generated or propagated. It is
	// assigned server-side (never decoded from a client's params
	// JSON), tags the job's spans and log lines, and travels to grid
	// workers in the session SETUP.
	RequestID string `json:"-"`

	// Tenant is the fair-share accounting principal of the submission
	// — the sanitized X-API-Key at the HTTP layer. Like RequestID it
	// is assigned server-side, never decoded from client params JSON.
	// Empty means the "anonymous" tenant. Tenant and Priority are the
	// PTYWALv2 scheduler addendum (docs/FORMATS.md): both omitempty, so
	// records written before the sched layer existed read back cleanly.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class: "bulk" (default) or
	// "interactive". Under the wfq policy an interactive job
	// dispatches before any bulk job and may preempt a running bulk
	// job at its next iteration boundary.
	Priority string `json:"priority,omitempty"`
}

// spec is the engine-level description of the job's run. The
// communication timeout is service configuration, set by the executor.
func (p *Params) spec() engine.Spec {
	return engine.Spec{
		Algorithm: p.Algorithm, Iterations: p.Iterations, StepSize: p.StepSize,
		MeshRows: p.MeshRows, MeshCols: p.MeshCols,
		RoundsPerIteration: p.RoundsPerIteration, IntraWorkers: p.IntraWorkers,
		SnapshotEvery: p.CheckpointEvery, StartIter: p.StartIter,
	}
}

func (p *Params) setDefaults(cfg Config) {
	if p.Algorithm == "" {
		p.Algorithm = "serial"
	}
	if p.Iterations == 0 {
		p.Iterations = 20
	}
	if p.StepSize == 0 {
		p.StepSize = 0.01
	}
	if p.MeshRows == 0 {
		p.MeshRows = 2
	}
	if p.MeshCols == 0 {
		p.MeshCols = 2
	}
	if p.RoundsPerIteration == 0 {
		p.RoundsPerIteration = 1
	}
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = cfg.CheckpointEvery
	}
	if p.Tenant == "" {
		p.Tenant = AnonymousTenant
	}
	if p.Priority == "" {
		p.Priority = sched.Bulk.String()
	}
}

func (p *Params) validate(prob *solver.Problem) error {
	if p.Grid && p.Algorithm == "serial" {
		return fmt.Errorf("%w: grid execution requires a parallel algorithm (gd or hve)", ErrInvalidParams)
	}
	if err := p.validateCommon(prob); err != nil {
		return err
	}
	if p.InitialObject != nil {
		if len(p.InitialObject) != prob.Slices {
			return fmt.Errorf("%w: initial object has %d slices, dataset has %d",
				ErrInvalidParams, len(p.InitialObject), prob.Slices)
		}
		if !p.InitialObject[0].Bounds.Eq(prob.ImageBounds()) {
			return fmt.Errorf("%w: initial object bounds %v != dataset image %v",
				ErrInvalidParams, p.InitialObject[0].Bounds, prob.ImageBounds())
		}
	}
	return nil
}

// validateCommon holds the checks batch and streaming jobs share: what
// the engine would reject before its first iteration (on prob's
// geometry), plus the service's own parameters.
func (p *Params) validateCommon(prob *solver.Problem) error {
	if err := p.spec().Validate(prob); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidParams, err)
	}
	if p.MeshRows <= 0 || p.MeshCols <= 0 {
		return fmt.Errorf("%w: invalid mesh %dx%d", ErrInvalidParams, p.MeshRows, p.MeshCols)
	}
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("%w: checkpoint period must be non-negative, got %d", ErrInvalidParams, p.CheckpointEvery)
	}
	if _, ok := sched.ParseClass(p.Priority); !ok {
		return fmt.Errorf("%w: unknown priority %q (want bulk or interactive)", ErrInvalidParams, p.Priority)
	}
	return nil
}

// validateStreaming checks the parameters of a Streaming job against
// its stream header.
func (p *Params) validateStreaming(hdr *dataio.StreamHeader) error {
	if p.Algorithm != "serial" && p.Algorithm != "gd" {
		return fmt.Errorf("%w: unknown streaming algorithm %q (want serial or gd; hve needs a fixed location set)",
			ErrInvalidParams, p.Algorithm)
	}
	if err := hdr.Validate(); err != nil {
		return fmt.Errorf("%w: invalid stream header: %v", ErrInvalidParams, err)
	}
	if err := p.validateCommon(hdr.NewProblem()); err != nil {
		return err
	}
	if p.FoldEvery < 0 {
		return fmt.Errorf("%w: fold period must be non-negative, got %d", ErrInvalidParams, p.FoldEvery)
	}
	if p.MaxIterations < 0 {
		return fmt.Errorf("%w: max iterations must be non-negative, got %d", ErrInvalidParams, p.MaxIterations)
	}
	if p.IngestCapacity < 0 {
		return fmt.Errorf("%w: ingest capacity must be non-negative, got %d", ErrInvalidParams, p.IngestCapacity)
	}
	if p.InitialObject != nil {
		return fmt.Errorf("%w: streaming jobs cannot warm-start (frames define the dataset)", ErrInvalidParams)
	}
	if p.Grid {
		return fmt.Errorf("%w: streaming jobs run on the local pool (the grid reconstructs fixed datasets)", ErrInvalidParams)
	}
	return nil
}

// Errors returned by the service.
var (
	// ErrInvalidParams is returned by Submit for malformed job
	// parameters or an inconsistent problem — client error, not service
	// failure (the HTTP layer maps it to 400).
	ErrInvalidParams = errors.New("jobs: invalid job")
	// ErrQueueFull is returned by Submit when the bounded FIFO is full.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished is returned by Cancel on a job already in a terminal
	// state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrNotResumable is returned by Resume when the job is not in a
	// terminal non-Done state with a checkpoint and iterations left.
	ErrNotResumable = errors.New("jobs: job not resumable")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: service closed")
	// ErrNotStreaming is returned by AppendFrames and CloseStream on a
	// batch job — only Streaming jobs accept frames.
	ErrNotStreaming = errors.New("jobs: not a streaming job")
	// ErrBadCursor is returned by ListPage for a cursor that no page
	// ever handed out — client error, same class as ErrInvalidParams.
	ErrBadCursor = errors.New("jobs: invalid list cursor")
	// ErrQuotaExceeded is returned by Submit and AppendFrames when the
	// submission's tenant is at its concurrent-job cap or ingest-byte
	// quota — same retry contract as ErrQueueFull (HTTP 429), scoped
	// to one tenant instead of the whole service.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
)

// AnonymousTenant is the accounting principal of submissions that
// carry no API key.
const AnonymousTenant = "anonymous"

// Job is one reconstruction tracked by the service. All accessors are
// safe for concurrent use.
type Job struct {
	id     string
	params Params
	ctx    context.Context
	cancel context.CancelFunc

	data *Dataset // a batch job's; released by finish under mu

	// Streaming-job state (nil/false for batch jobs). The ingest is
	// the bounded frame buffer producers append to; hdr is the
	// PTYCHS opening the job was created from.
	streaming bool
	hdr       *dataio.StreamHeader
	ingest    *stream.Ingest

	// Span trace: tr collects the job's timeline (it has its own
	// lock), rootSpan is the all-enclosing "job" span, and
	// lastBoundary (under mu) is where the next coordinator phase
	// span starts — phases tile [created, finished] exactly, so the
	// trace always reconciles with the job's wall clock.
	tr       *obs.Trace
	rootSpan int

	// Analysis-layer state (see analysis.go). rec is the per-job flight
	// recorder (attached with the trace, nil-safe). pred, flopsPerIter,
	// predRanks and tracker are armed before the job is enqueued and
	// immutable afterwards; the post-run verdicts live under mu below.
	rec          *flight.Recorder
	pred         *Prediction
	flopsPerIter float64
	predRanks    int
	tracker      *rankTracker

	// Scheduler bookkeeping guarded by the SERVICE mutex, not j.mu:
	// these fields change only inside the service's queue/tenant
	// critical sections (enqueue, preemption requeue, terminal
	// release), where s.mu is always held.
	idemKey        string // Idempotency-Key of the original submission, for WAL re-logs
	seq            uint64 // scheduler sequence number (submission order tie-break)
	tenantLabel    string // bounded-cardinality metrics label for the tenant
	tenantReleased bool   // tenant accounting released (terminal reached once)
	ingestedBytes  int64  // live ingest bytes charged against the tenant quota

	mu             sync.Mutex
	lastBoundary   time.Time
	state          State
	enqueuedAt     time.Time // last entry into the queue (created, or the preemption requeue instant)
	preempt        bool      // service asked the job to yield at its next iteration boundary
	userCancel     bool      // Cancel was called while running: terminal beats requeue
	preemptedCount int       // times the job was preempted and requeued
	lastIterDur    time.Duration
	iter           int // completed iterations, including StartIter
	cost           float64
	costHistory    []float64
	snapshot       []*grid.Complex2D // latest object copy; arrays immutable once published; finish releases it
	snapshotIter   int
	checkpointPath string
	checkpointIter int
	resumedFrom    string
	recoveredFrom  string  // how crash recovery revived this job ("checkpoint@k", "scratch", "stream")
	recFrames      int     // frame count restored from the WAL for a terminal streaming job
	recEOF         bool    // EOF flag restored from the WAL (ingest is gone for terminal jobs)
	actualSeconds  float64 // wall-clock runtime measured by analyze
	predErrRatio   float64 // actual / predicted runtime
	imbalance      float64 // mean per-iteration max/mean rank compute ratio
	stragglers     []int   // ranks persistently slower than the mean
	err            error
	created        time.Time
	started        time.Time
	finished       time.Time
	folds          int // ingest folds performed (streaming)
	activeFrames   int // frames in the active set (streaming)
	subs           map[int]chan Event
	nextSub        int
}

// Streaming reports whether the job reconstructs a live stream.
func (j *Job) Streaming() bool { return j.streaming }

// WindowN returns the probe-window edge of a streaming job's frames
// (0 for batch jobs) — the HTTP layer needs it to decode chunk bodies.
func (j *Job) WindowN() int {
	if j.hdr == nil {
		return 0
	}
	return j.hdr.WindowN
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Trace returns the job's span trace (nil-safe to use either way) and
// RequestID its trace context.
func (j *Job) Trace() *obs.Trace { return j.tr }

// RequestID returns the X-Request-ID the job was submitted under (""
// for jobs submitted without one, e.g. direct API use in tests).
func (j *Job) RequestID() string { return j.params.RequestID }

// Params returns a copy of the job's parameters with InitialObject
// excluded (the warm-start object is live engine state, not
// configuration).
func (j *Job) Params() Params {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.params
	p.InitialObject = nil
	return p
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Object returns the job's latest object (nil before the first
// snapshot) and the completed-iteration count it holds: the in-heap
// copy while the job has one, otherwise its OBJCKv1 checkpoint file —
// a finished job's and a WAL-restored job's only copy. The returned
// slices are never mutated afterwards — safe to read without copying.
func (j *Job) Object() ([]*grid.Complex2D, int, error) {
	j.mu.Lock()
	snap, iter := j.snapshot, j.snapshotIter
	path, ck := j.checkpointPath, j.checkpointIter
	j.mu.Unlock()
	if snap != nil || path == "" {
		return snap, iter, nil
	}
	slices, err := dataio.ReadObjectFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("reading the iteration-%d checkpoint of %s: %w", ck, j.id, err)
	}
	return slices, ck, nil
}

// CheckpointPath returns the latest OBJCKv1 checkpoint file ("" before
// the first) and the completed-iteration count it holds.
func (j *Job) CheckpointPath() (string, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointPath, j.checkpointIter
}

// Info is a point-in-time summary of a job. It IS the /v1 job object:
// package client declares the schema, the HTTP layer serves the value
// as it stands.
type Info = client.Job

// Info snapshots the job. historyTail bounds the cost history included:
// 0 omits it (list endpoints), n > 0 includes the last n entries, and a
// negative value includes everything. The bound matters operationally —
// history grows by one entry per iteration without limit, and a polling
// GUI should not copy (under the job lock) and ship megabytes per poll
// of a long run.
func (j *Job) Info(historyTail int) Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID:                   j.id,
		State:                j.state.String(),
		Algorithm:            j.params.Algorithm,
		Grid:                 j.params.Grid,
		Iter:                 j.iter,
		Cost:                 j.cost,
		CheckpointIter:       j.checkpointIter,
		Checkpoint:           j.checkpointPath,
		ResumedFrom:          j.resumedFrom,
		RecoveredFrom:        j.recoveredFrom,
		RequestID:            j.params.RequestID,
		Tenant:               j.params.Tenant,
		Priority:             j.params.Priority,
		PreemptedCount:       j.preemptedCount,
		Created:              j.created,
		Started:              j.started,
		Finished:             j.finished,
		Prediction:           j.pred,
		ActualSeconds:        j.actualSeconds,
		PredictionErrorRatio: j.predErrRatio,
		ImbalanceRatio:       j.imbalance,
	}
	if len(j.stragglers) > 0 {
		info.StragglerRanks = append([]int(nil), j.stragglers...)
	}
	if j.streaming {
		info.Streaming = true
		if j.ingest != nil {
			info.Frames = j.ingest.Total()
			info.EOF = j.ingest.EOF()
		} else {
			// Terminal job restored from the WAL: its ingest is gone,
			// the log remembers what it accepted.
			info.Frames = j.recFrames
			info.EOF = j.recEOF
		}
		info.ActiveFrames = j.activeFrames
		info.Folds = j.folds
	} else {
		info.TotalIters = j.params.StartIter + j.params.Iterations
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	hist := j.costHistory
	if historyTail >= 0 && len(hist) > historyTail {
		hist = hist[len(hist)-historyTail:]
	}
	if len(hist) > 0 {
		info.CostHistory = append([]float64(nil), hist...)
	}
	return info
}

// markRunning transitions Queued→Running; false means the job was
// cancelled while still queued and must be skipped. The wait in the
// queue becomes the trace's queue-wait span — measured from the LAST
// enqueue (submission, or the preemption requeue), so a preempted
// job's second wait is not double-counted from its creation.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.started = time.Now()
	j.lastBoundary = j.started
	from := j.enqueuedAt
	if from.IsZero() {
		from = j.created
	}
	j.tr.Record("queue-wait", j.rootSpan, obs.RankCoordinator, obs.IterNone,
		from, j.started.Sub(from))
	j.publishLocked(Event{Type: "state", State: Running.String()})
	return true
}

// queueWait returns how long the job sat in the queue before its
// latest start (0 before it started).
func (j *Job) queueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	from := j.enqueuedAt
	if from.IsZero() {
		from = j.created
	}
	return j.started.Sub(from)
}

// beginIterations closes the setup phase — everything between
// Queued→Running and the engine's first iteration: dataset reload,
// mesh construction, grid session encode/dispatch. The next boundary
// span starts here.
func (j *Job) beginIterations() {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	if !j.lastBoundary.IsZero() {
		j.tr.Record("setup", j.rootSpan, obs.RankCoordinator, obs.IterNone,
			j.lastBoundary, now.Sub(j.lastBoundary))
	}
	j.lastBoundary = now
}

// recordIteration publishes progress from the engine's OnIteration and
// records the iteration's coordinator span, returning its duration
// (0 when no boundary was established) so the caller can feed the
// iteration-latency histogram without re-deriving it.
func (j *Job) recordIteration(completed int, cost float64) time.Duration {
	j.mu.Lock()
	j.iter = completed
	j.cost = cost
	j.costHistory = append(j.costHistory, cost)
	var d time.Duration
	now := time.Now()
	if !j.lastBoundary.IsZero() {
		d = now.Sub(j.lastBoundary)
		j.tr.Record("iteration", j.rootSpan, obs.RankCoordinator, completed, j.lastBoundary, d)
		j.lastIterDur = d
	}
	j.lastBoundary = now
	j.publishLocked(Event{Type: "iteration", Iter: completed, Cost: cost})
	j.mu.Unlock()
	return d
}

// recordRankTiming lands one worker rank's per-iteration compute/comm
// split in the job timeline. Only durations travel over the wire —
// worker clocks are never compared to the coordinator's — so the two
// spans are anchored backwards from the arrival time: comm ends now,
// compute precedes it.
func (j *Job) recordRankTiming(rank, iter int, computeNS, commNS int64) {
	end := time.Now()
	commStart := end.Add(-time.Duration(commNS))
	j.tr.Record("compute", j.rootSpan, rank, iter,
		commStart.Add(-time.Duration(computeNS)), time.Duration(computeNS))
	j.tr.Record("comm", j.rootSpan, rank, iter, commStart, time.Duration(commNS))
}

// recordFold publishes streaming-fold progress from the engine's
// OnFold.
func (j *Job) recordFold(active int) {
	j.mu.Lock()
	j.folds++
	j.activeFrames = active
	j.publishLocked(Event{Type: "fold", Frames: active})
	j.mu.Unlock()
}

// recordFrames publishes an ingest acceptance.
func (j *Job) recordFrames(total int) {
	j.mu.Lock()
	j.publishLocked(Event{Type: "frames", Frames: total})
	j.mu.Unlock()
}

// recordEOF publishes the producer closing the stream.
func (j *Job) recordEOF() {
	j.mu.Lock()
	j.publishLocked(Event{Type: "eof"})
	j.mu.Unlock()
}

// setSnapshot publishes a fresh object copy for previews.
func (j *Job) setSnapshot(slices []*grid.Complex2D, completed int) {
	j.mu.Lock()
	j.snapshot = slices
	j.snapshotIter = completed
	j.publishLocked(Event{Type: "snapshot", Iter: completed})
	j.mu.Unlock()
}

// setCheckpoint records a durable OBJCKv1 file and returns the path it
// supersedes ("" for the first checkpoint).
func (j *Job) setCheckpoint(path string, completed int) string {
	j.mu.Lock()
	prev := j.checkpointPath
	j.checkpointPath = path
	j.checkpointIter = completed
	j.mu.Unlock()
	j.rec.Record(flight.Event{Kind: "checkpoint", Iter: completed, Detail: path})
	return prev
}

// finish transitions to a terminal state and releases memory the
// terminal job no longer needs: the warm-start object always, the
// latest snapshot once its checkpoint file holds the same iteration
// (Object reads the file from then on), and the dataset's geometry
// once the job can never be resumed (Done, or terminal without a
// checkpoint). A job whose final checkpoint write failed keeps its
// snapshot, since its file is older; the spool stays on disk.
func (j *Job) finish(state State, err error) {
	j.mu.Lock()
	j.finishLocked(state, err)
	j.mu.Unlock()
}

func (j *Job) finishLocked(state State, err error) {
	j.state = state
	j.err = err
	j.finished = time.Now()
	if !j.lastBoundary.IsZero() {
		// Final coordinator phase: stitch/assembly and the terminal
		// checkpoint after the last iteration boundary. Together with
		// queue-wait, setup and the iteration spans this tiles
		// [created, finished] completely.
		j.tr.Record("finalize", j.rootSpan, obs.RankCoordinator, obs.IterNone,
			j.lastBoundary, j.finished.Sub(j.lastBoundary))
		j.lastBoundary = time.Time{}
	}
	j.tr.EndAt(j.rootSpan, j.finished)
	j.params.InitialObject = nil
	if j.checkpointPath != "" && j.checkpointIter == j.snapshotIter {
		j.snapshot = nil
	}
	if state == Done || j.checkpointPath == "" {
		j.data = nil
	}
	if err != nil {
		j.rec.Record(flight.Event{Kind: "error", State: state.String(), Detail: err.Error()})
	}
	j.publishLocked(Event{Type: "state", State: state.String()})
	j.closeSubsLocked()
}

func cloneSlices(slices []*grid.Complex2D) []*grid.Complex2D {
	out := make([]*grid.Complex2D, len(slices))
	for i, s := range slices {
		out[i] = s.Clone()
	}
	return out
}
