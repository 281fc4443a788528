package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/obs"
	"ptychopath/internal/obs/flight"
	"ptychopath/internal/solver"
	"ptychopath/internal/stream"
	"ptychopath/internal/transport"
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size — how many reconstructions run
	// concurrently. Default 2.
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker; Submit
	// returns ErrQueueFull beyond it. Default 16.
	QueueDepth int
	// SpoolDir receives OBJCKv1 checkpoint files (<jobid>-i<iter>.objck;
	// superseded checkpoints are removed once the successor is logged)
	// and, without a durable Store, the upload spools. When empty a fresh
	// temporary directory is created.
	SpoolDir string
	// CheckpointEvery is the default iteration period for checkpoints
	// and preview snapshots when a job does not set its own. Default 5.
	CheckpointEvery int
	// Timeout bounds parallel-engine communication. Default 5 minutes.
	Timeout time.Duration
	// IngestFrames is the default per-job frame-buffer bound for
	// Streaming jobs; appends beyond it see stream.ErrIngestFull
	// (HTTP 429 backpressure). Default 4096.
	IngestFrames int
	// GridAddr, when non-empty, starts the worker-grid coordinator: a
	// TCP hub on this address that ptychoworker processes register
	// with, enabling Params.Grid jobs to run their parallel engine
	// across processes (see grid.go and internal/transport). Empty
	// disables the grid.
	GridAddr string
	// Store is the durability layer: job transitions are logged to it
	// and NewService replays its Recovery into the registry (interrupted
	// jobs re-enqueue under their original IDs, warm-started from their
	// last checkpoint). Nil selects store.Mem — the historical in-memory
	// behavior, nothing survives the process. The service syncs the
	// store on Shutdown/Close but does not close it; the creator owns
	// its lifetime.
	Store store.Store
	// Logger receives the service's structured log lines (job
	// lifecycle at Info, per-iteration and checkpoint detail at
	// Debug), each tagged with job_id and request_id. Nil discards.
	Logger *slog.Logger
	// Sched selects the queue ordering policy and the tenant
	// contracts (see internal/jobs/sched). The zero value is the
	// historical FIFO with no quotas — existing single-tenant
	// deployments are untouched.
	Sched sched.Config
}

func (c *Config) setDefaults() error {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Workers < 0 {
		return fmt.Errorf("jobs: workers must be positive, got %d", c.Workers)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("jobs: queue depth must be positive, got %d", c.QueueDepth)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 5
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("jobs: checkpoint period must be non-negative, got %d", c.CheckpointEvery)
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Minute
	}
	if c.IngestFrames == 0 {
		c.IngestFrames = 4096
	}
	if c.IngestFrames < 0 {
		return fmt.Errorf("jobs: ingest capacity must be positive, got %d", c.IngestFrames)
	}
	if c.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "ptychojobs-")
		if err != nil {
			return fmt.Errorf("jobs: creating spool dir: %w", err)
		}
		c.SpoolDir = dir
	} else if err := os.MkdirAll(c.SpoolDir, 0o755); err != nil {
		return fmt.Errorf("jobs: creating spool dir: %w", err)
	}
	if err := c.Sched.SetDefaults(); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if c.Sched.InteractiveReserve >= c.QueueDepth {
		return fmt.Errorf("jobs: interactive reserve %d must leave bulk room in queue depth %d",
			c.Sched.InteractiveReserve, c.QueueDepth)
	}
	return nil
}

// Service owns the queue, the worker pool and the job registry.
type Service struct {
	cfg   Config
	wg    sync.WaitGroup
	met   counters
	hist  histograms
	log   *slog.Logger
	grid  *transport.Hub // worker-grid coordinator; nil without GridAddr
	store store.Store
	start time.Time // service start, for Status uptime

	// Analysis-layer state (see analysis.go): the live throughput EWMA
	// feeding runtime predictions, and the prediction-error summary.
	throughput ewma
	preds      predStats

	// WAL replay statistics, set once during NewService recovery.
	replayRecords, replayTorn int

	// Fleet-wide runtime EWMA: the Retry-After fallback for jobs
	// without a prediction (see tenancy.go).
	runtime ewma

	mu          sync.Mutex
	notify      *sync.Cond  // signals workers: queue non-empty or closing
	q           sched.Queue // bounded queue; ordering policy per Config.Sched
	seq         uint64      // scheduler sequence — submission-order tie-break
	jobs        map[string]*Job
	order       []string                // submission order, for List/ListPage
	idem        map[string]*Job         // Idempotency-Key → the job it created
	running     map[string]*Job         // jobs currently on a worker (preemption victims, retry estimates)
	tenants     map[string]*tenantState // fair-share accounting, keyed by tenant name
	tenantOrder []string                // first-seen order; bounds the metric registry
	nextID      int
	closed      bool
}

// NewService validates the config, creates the spool directory,
// replays the store's recovery (see Config.Store) and starts the
// worker pool.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	q, err := sched.New(cfg.Sched)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		hist:    newHistograms(),
		log:     cfg.Logger,
		store:   cfg.Store,
		start:   time.Now(),
		q:       q,
		jobs:    make(map[string]*Job),
		idem:    make(map[string]*Job),
		running: make(map[string]*Job),
		tenants: make(map[string]*tenantState),
	}
	if s.log == nil {
		s.log = obs.Discard()
	}
	if s.store == nil {
		s.store = store.Mem{Dir: cfg.SpoolDir}
	}
	// When the store can report fsync latency (the WAL does), feed it
	// into the histogram; stores without the hook stay silent.
	if o, ok := s.store.(interface{ SetSyncObserver(func(time.Duration)) }); ok {
		o.SetSyncObserver(s.hist.walFsync.Observe)
	}
	if cfg.GridAddr != "" {
		hub, err := transport.Listen(cfg.GridAddr)
		if err != nil {
			return nil, fmt.Errorf("jobs: starting grid coordinator: %w", err)
		}
		s.grid = hub
	}
	// Recovery runs before the first worker starts: the queue must be
	// fully rebuilt before anything can pop from it.
	rec, err := s.store.Recover()
	if err != nil {
		return nil, fmt.Errorf("jobs: recovering job state: %w", err)
	}
	s.recoverJobs(rec)
	if s.store.Durable() {
		s.log.Info("recovery complete",
			"records", rec.Records, "torn", rec.Torn, "jobs", len(rec.Jobs))
	}
	s.notify = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.pop()
				if !ok {
					return
				}
				s.run(j)
			}
		}()
	}
	return s, nil
}

// pop blocks until a job is queued or the service closes with an empty
// queue. The popped job is registered as running-designate so retry
// estimates and preemption see it even before markRunning commits.
func (s *Service) pop() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.q.Len() == 0 && !s.closed {
		s.notify.Wait()
	}
	it, ok := s.q.Pop()
	if !ok {
		return nil, false
	}
	j := it.Payload.(*Job)
	s.running[j.id] = j
	return j, true
}

// Close stops accepting jobs, waits for queued and running jobs to
// drain, and returns. Cancel running jobs first for a fast shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.notify.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	if s.grid != nil {
		s.grid.Close()
	}
	if err := s.store.Sync(); err != nil {
		s.met.walErrors.Add(1)
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Submit validates the job and enqueues it, returning ErrQueueFull when
// the bounded FIFO has no room. The problem goes in as an upload would.
func (s *Service) Submit(prob *solver.Problem, p Params) (*Job, error) {
	j, _, err := s.SubmitWithKey(prob, p, "")
	return j, err
}

// SubmitWithKey is Submit with an idempotency key: when key is
// non-empty and a previous submission with the same key succeeded, the
// original job is returned with created == false and nothing is
// enqueued — a client that retries a submission after a lost response
// cannot double-enqueue the work. The key is claimed only by a
// successful enqueue: a submission rejected with ErrQueueFull leaves
// the key free, so the retry the 429 asks for can succeed. The first
// job wins; parameters of replayed submissions are not compared.
func (s *Service) SubmitWithKey(prob *solver.Problem, p Params, key string) (*Job, bool, error) {
	pr, pw := io.Pipe()
	written := make(chan struct{})
	go func() { defer close(written); pw.CloseWithError(dataio.Write(pw, prob)) }()
	ds, err := s.SpoolDataset(pr)
	pr.Close() // unblocks the writer of a stream the scan gave up on
	<-written
	if err != nil {
		return nil, false, err
	}
	return s.SubmitDataset(ds, p, key)
}

func (s *Service) submit(ds *Dataset, p Params, resumedFrom, key string) (*Job, bool, error) {
	p.setDefaults(s.cfg)
	if err := p.validate(ds.geom); err != nil {
		return nil, false, err
	}
	if p.Grid && s.grid == nil {
		return nil, false, ErrNoGrid
	}
	ctx, cancel := context.WithCancel(context.Background())
	nj := newTracedJob(&Job{
		data: ds, params: p, ctx: ctx, cancel: cancel,
		state: Queued, iter: p.StartIter, resumedFrom: resumedFrom,
		created: time.Now(),
	})
	s.attachAnalysis(nj)
	j, created, err := s.enqueue(nj, key)
	if err != nil || !created {
		return j, created, err
	}
	if perr := s.persistSubmit(j, key); perr != nil {
		return nil, false, s.failPersist(j, perr)
	}
	s.log.Info("job submitted", "job_id", j.id, "request_id", p.RequestID,
		"algorithm", p.Algorithm, "grid", p.Grid, "iterations", p.Iterations)
	return j, created, nil
}

// newTracedJob attaches the span trace and the flight recorder to a
// constructed job: the root "job" span opens at submission and closes
// at the terminal state; the recorder keeps the tail of the event feed
// for the debug bundle.
func newTracedJob(j *Job) *Job {
	j.tr = obs.NewTrace(j.params.RequestID)
	j.rootSpan = j.tr.BeginAt("job", 0, obs.RankCoordinator, obs.IterNone, j.created)
	j.rec = flight.NewRecorder(0)
	return j
}

// failPersist unwinds a submission whose durability write failed: the
// job is cancelled (it must not run work the WAL never heard of) and
// the submitter gets the store error instead of an acknowledgment.
func (s *Service) failPersist(j *Job, err error) error {
	s.met.walErrors.Add(1)
	s.Cancel(j.id)
	return fmt.Errorf("jobs: persisting submission: %w", err)
}

// SubmitStreaming opens a Streaming job from geometry and probe
// metadata only (the PTYCHS opening): the reconstruction starts with
// an empty active set and grows as producers push frames through
// AppendFrames. Params.Iterations is the tail — iterations run over
// the complete set after CloseStream. Like any job it waits for a pool
// worker; frames appended while it is still queued are buffered (up to
// the ingest bound) and folded as soon as it starts.
func (s *Service) SubmitStreaming(hdr *dataio.StreamHeader, p Params) (*Job, error) {
	j, _, err := s.SubmitStreamingWithKey(hdr, p, "")
	return j, err
}

// SubmitStreamingWithKey is SubmitStreaming with an idempotency key —
// the same replay contract as SubmitWithKey.
func (s *Service) SubmitStreamingWithKey(hdr *dataio.StreamHeader, p Params, key string) (*Job, bool, error) {
	p.setDefaults(s.cfg)
	if err := p.validateStreaming(hdr); err != nil {
		return nil, false, err
	}
	capacity := p.IngestCapacity
	if capacity == 0 {
		capacity = s.cfg.IngestFrames
	}
	ctx, cancel := context.WithCancel(context.Background())
	j, created, err := s.enqueue(newTracedJob(&Job{
		params: p, ctx: ctx, cancel: cancel,
		streaming: true, hdr: hdr, ingest: stream.NewIngest(capacity),
		state: Queued, created: time.Now(),
	}), key)
	if err != nil || !created {
		return j, created, err
	}
	if perr := s.persistSubmit(j, key); perr != nil {
		return nil, false, s.failPersist(j, perr)
	}
	s.log.Info("job submitted", "job_id", j.id, "request_id", p.RequestID,
		"algorithm", p.Algorithm, "streaming", true)
	return j, created, nil
}

// enqueue registers a constructed job with the bounded queue. The
// idempotency check, the capacity check and the tenant quota share one
// critical section, so two racing submissions with the same key
// resolve to exactly one job: the loser observes the winner's
// registration and returns it.
//
// Load shedding is class-aware: bulk submissions are rejected once the
// queue reaches QueueDepth-InteractiveReserve, interactive ones only
// at the full depth — under pressure the service sheds bulk first.
// Both queue-full and quota rejections carry a live Retry-After
// derived from the backlog's predicted runtimes (see tenancy.go).
func (s *Service) enqueue(j *Job, key string) (*Job, bool, error) {
	class, _ := sched.ParseClass(j.params.Priority)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return nil, false, ErrClosed
	}
	if key != "" {
		if prev, ok := s.idem[key]; ok {
			s.mu.Unlock()
			j.cancel()
			s.met.replayed.Add(1)
			return prev, false, nil
		}
	}
	limit := s.cfg.QueueDepth
	if class == sched.Bulk {
		limit -= s.cfg.Sched.InteractiveReserve
	}
	if s.q.Len() >= limit {
		err := &Backpressure{
			Err:        fmt.Errorf("%w (depth %d)", ErrQueueFull, limit),
			RetryAfter: s.retryAfterLocked(),
		}
		s.mu.Unlock()
		j.cancel()
		s.met.rejected.Add(1)
		return nil, false, err
	}
	if err := s.admitLocked(j); err != nil {
		s.mu.Unlock()
		j.cancel()
		return nil, false, err
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%04d", s.nextID)
	j.idemKey = key
	s.q.Push(s.schedItemLocked(j))
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.idem[key] = j
	}
	s.notify.Signal()
	victim := s.preemptLocked(class)
	s.mu.Unlock()
	if victim != nil {
		victim.cancel()
	}
	s.met.submitted.Add(1)
	return j, true, nil
}

// preemptLocked picks a running bulk job to yield for a just-enqueued
// interactive one (wfq policy only): when every worker is busy and at
// least one runs bulk work, the most recently started bulk job is
// flagged to stop at its next iteration boundary — it checkpoints,
// requeues warm (see requeuePreempted) and loses no work. Returns the
// victim whose context the caller must cancel AFTER releasing s.mu.
// Requires s.mu.
func (s *Service) preemptLocked(class sched.Class) *Job {
	if class != sched.Interactive || s.q.Policy() != "wfq" {
		return nil
	}
	if len(s.running) < s.cfg.Workers {
		return nil // an idle worker will take the interactive job now
	}
	var victim *Job
	var victimStart time.Time
	for _, j := range s.running {
		j.mu.Lock()
		ok := j.state == Running && !j.preempt && !j.userCancel &&
			!j.streaming && j.params.Priority != sched.Interactive.String()
		started := j.started
		j.mu.Unlock()
		if ok && (victim == nil || started.After(victimStart)) {
			victim, victimStart = j, started
		}
	}
	if victim == nil {
		return nil
	}
	victim.mu.Lock()
	victim.preempt = true
	victim.mu.Unlock()
	return victim
}

// AppendFrames pushes a chunk of acquired frames into a streaming
// job's ingest buffer, returning the total accepted so far. Frames are
// validated against the job's window size before they enter the
// buffer. A full buffer returns stream.ErrIngestFull (retry after
// backoff — the HTTP layer maps it to 429 with Retry-After); a closed
// stream returns stream.ErrStreamClosed; a finished job ErrFinished.
func (s *Service) AppendFrames(id string, frames []dataio.Frame) (int, error) {
	j, ok := s.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.streaming {
		return 0, fmt.Errorf("%w: %s", ErrNotStreaming, id)
	}
	if j.hdr == nil {
		// A terminal job restored from the WAL: its stream is long gone.
		return j.recFrames, fmt.Errorf("%w: %s is %s", ErrFinished, id, j.State())
	}
	if len(frames) == 0 {
		return j.ingest.Total(), nil
	}
	// Full validation HERE, before acceptance: a frame that would fail
	// the fold (Problem.AppendLocations) must 400 the producer that
	// sent it, not kill the whole non-resumable job minutes later.
	img := grid.RectWH(0, 0, j.hdr.ImageW, j.hdr.ImageH)
	for i, f := range frames {
		if f.Meas == nil || f.Meas.W() != j.hdr.WindowN || f.Meas.H() != j.hdr.WindowN {
			return j.ingest.Total(), fmt.Errorf("%w: frame %d measurement is not %dx%d",
				ErrInvalidParams, i, j.hdr.WindowN, j.hdr.WindowN)
		}
		if !img.Contains(int(math.Round(f.Loc.X)), int(math.Round(f.Loc.Y))) {
			return j.ingest.Total(), fmt.Errorf("%w: frame %d center (%g, %g) outside image %dx%d",
				ErrInvalidParams, i, f.Loc.X, f.Loc.Y, j.hdr.ImageW, j.hdr.ImageH)
		}
	}
	if j.State().Terminal() {
		return j.ingest.Total(), fmt.Errorf("%w: %s is %s", ErrFinished, id, j.State())
	}
	// Tenant ingest quota: reserve the chunk's resident bytes before
	// the buffer accepts them; a rejected reservation is a 429 with a
	// drain-rate Retry-After, same contract as a full buffer.
	need := int64(len(frames)) * frameBytes(j.hdr.WindowN)
	if qerr := s.chargeIngest(j, need); qerr != nil {
		return j.ingest.Total(), qerr
	}
	// Latency of the accept path — buffer append plus (durable stores)
	// the spool write and WAL record that gate the acknowledgment.
	start := time.Now()
	defer func() { s.hist.ingest.Observe(time.Since(start)) }()
	total, err := j.ingest.Append(frames)
	if err != nil {
		s.refundIngest(j, need)
		if errors.Is(err, stream.ErrIngestFull) {
			// Honest backpressure: how long until a fold drains room,
			// from the job's own observed iteration cadence.
			err = &Backpressure{Err: err, RetryAfter: s.ingestRetryHint(j)}
		}
		return total, err
	}
	// Durability before acknowledgment: a chunk the producer sees
	// accepted must survive a crash, so the spool append + WAL record
	// happen before we return the new total. On a spool failure the
	// producer gets the error (no acknowledgment) — the frames are in
	// this process's ingest but have no durability, and a producer that
	// retries may duplicate them; the alternative, acking bytes the
	// disk never saw, silently breaks recovery.
	if s.store.Durable() {
		if serr := s.store.SpoolFrames(j.id, j.hdr.WindowN, frames); serr != nil {
			s.met.walErrors.Add(1)
			return total, fmt.Errorf("jobs: persisting frames: %w", serr)
		}
		if serr := s.store.LogFrames(j.id, total); serr != nil {
			s.met.walErrors.Add(1)
		}
	}
	s.met.frames.Add(int64(len(frames)))
	j.recordFrames(total)
	return total, nil
}

// CloseStream marks the end of a streaming job's acquisition: frames
// already buffered still fold, then the job runs its tail iterations
// and completes. Idempotent.
func (s *Service) CloseStream(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.streaming {
		return fmt.Errorf("%w: %s", ErrNotStreaming, id)
	}
	if j.State().Terminal() {
		return fmt.Errorf("%w: %s is %s", ErrFinished, id, j.State())
	}
	j.ingest.CloseEOF()
	if s.store.Durable() {
		// Best effort, after the in-memory close (CloseStream is
		// idempotent; a duplicate EOF chunk in the spool is harmless —
		// replay stops at the first).
		if err := s.store.SpoolStreamEOF(id); err != nil {
			s.met.walErrors.Add(1)
		} else if err := s.store.LogEOF(id); err != nil {
			s.met.walErrors.Add(1)
		}
	}
	j.recordEOF()
	return nil
}

// Get returns the job with the given ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ListOptions selects a page of the job registry. Here a Limit of 0 or
// less means no bound; the server default it selects over HTTP is the
// HTTP layer's.
type ListOptions = client.ListOptions

// ListPage returns one page of job summaries in deterministic
// submit-time order (the order Submit assigned IDs), optionally
// filtered by state. The second return is the cursor of the next page:
// empty when the listing is exhausted. An unknown cursor returns
// ErrBadCursor — cursors are job IDs handed out by a previous page, and
// jobs are never deleted, so a valid cursor cannot go stale (a cursor
// at the end of the registry yields an empty page, not an error).
func (s *Service) ListPage(opts ListOptions) ([]Info, string, error) {
	if opts.Status != "" {
		switch opts.Status {
		case Queued.String(), Running.String(), Done.String(), Failed.String(), Cancelled.String():
		default:
			return nil, "", fmt.Errorf("%w: unknown status %q", ErrInvalidParams, opts.Status)
		}
	}
	s.mu.Lock()
	start := 0
	if opts.Cursor != "" {
		if _, ok := s.jobs[opts.Cursor]; !ok {
			s.mu.Unlock()
			return nil, "", fmt.Errorf("%w: %q", ErrBadCursor, opts.Cursor)
		}
		for i, id := range s.order {
			if id == opts.Cursor {
				start = i + 1
				break
			}
		}
	}
	tail := make([]*Job, len(s.order)-start)
	for i, id := range s.order[start:] {
		tail[i] = s.jobs[id]
	}
	s.mu.Unlock()

	// Filter and bound outside the service lock: Info takes each job's
	// own lock, and states are read point-in-time (a job may leave the
	// filtered state between selection and serialization — the page is
	// a snapshot, not a transaction).
	page := make([]Info, 0, min(len(tail), max(opts.Limit, 0)))
	next := ""
	for _, j := range tail {
		info := j.Info(0)
		if opts.Status != "" && info.State != opts.Status {
			continue
		}
		if opts.Limit > 0 && len(page) == opts.Limit {
			// One more match exists beyond the bound: point the cursor
			// at the last delivered job so the next page continues
			// there instead of ending on a guaranteed-empty page.
			next = page[len(page)-1].ID
			break
		}
		page = append(page, info)
	}
	return page, next, nil
}

// Cancel cancels a job: a queued job transitions to Cancelled
// immediately (and frees its queue slot); a running job is interrupted
// at its next iteration boundary (the worker writes a final checkpoint
// and completes the transition asynchronously). Cancelling a finished
// job returns ErrFinished.
func (s *Service) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	// Lock order: s.mu before j.mu (the queue entry and the state must
	// change together, or a worker could pop a job Cancel believes it
	// removed).
	s.mu.Lock()
	j.mu.Lock()
	switch j.state {
	case Queued:
		// Counter first: once the Cancelled state is observable, the
		// metric must already reflect it (the CI smoke relies on this).
		s.met.cancelled.Add(1)
		j.finishLocked(Cancelled, nil)
		s.q.Remove(j.id)
		j.mu.Unlock()
		s.releaseTenantLocked(j, 0)
		s.mu.Unlock()
		j.cancel()
		// No worker will ever see this job; the terminal record is
		// written here or nowhere.
		s.logFinish(j, Cancelled, nil)
		return nil
	case Running:
		// An explicit cancel beats a pending preemption: the job must
		// end Cancelled, not requeue behind the user's back.
		j.userCancel = true
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		return nil
	default:
		j.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrFinished, id, j.State())
	}
}

// Resume submits a new job that warm-starts from the latest OBJCKv1
// checkpoint of a cancelled (or failed) job and runs the remaining
// iterations. The new job reports progress continuing from the
// checkpointed iteration count.
func (s *Service) Resume(id string) (*Job, error) {
	old, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if old.streaming {
		// A streaming job's dataset lives in its (drained) ingest, not
		// a retained problem; replay the stream to resume instead.
		return nil, fmt.Errorf("%w: %s is a streaming job", ErrNotResumable, id)
	}
	old.mu.Lock()
	state := old.state
	path := old.checkpointPath
	completed := old.checkpointIter
	p := old.params
	ds := old.data
	old.mu.Unlock()
	if state != Cancelled && state != Failed {
		return nil, fmt.Errorf("%w: %s is %s (want cancelled or failed)", ErrNotResumable, id, state)
	}
	if path == "" || ds == nil {
		return nil, fmt.Errorf("%w: %s has no checkpoint", ErrNotResumable, id)
	}
	total := p.StartIter + p.Iterations
	if completed >= total {
		return nil, fmt.Errorf("%w: %s already completed %d of %d iterations", ErrNotResumable, id, completed, total)
	}
	ds, err := s.scanSpool(ds.path) // the same spool; a restored job holds no geometry
	if err != nil {
		return nil, fmt.Errorf("jobs: reloading dataset for %s: %w", id, err)
	}
	slices, err := s.store.LoadObject(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading checkpoint for %s: %w", id, err)
	}
	p.InitialObject = slices
	p.StartIter = completed
	p.Iterations = total - completed
	j, _, err := s.submit(ds, p, id, "")
	return j, err
}

// run executes one job on a pool worker. pop() registered the job in
// s.running; every exit either unregisters it (terminal) or hands it
// back to the queue (preemption requeue does both atomically).
func (s *Service) run(j *Job) {
	if !j.markRunning() {
		s.unregisterRunning(j)
		return // cancelled while queued
	}
	wait := j.queueWait()
	s.hist.queueWait.Observe(wait)
	s.hist.tenantQueueWait.Observe(wait, j.tenantLabel)
	s.logStart(j)
	s.met.running.Add(1)
	slices, err := s.execute(j)
	s.met.running.Add(-1)
	// Counters increment BEFORE the terminal state is published, so a
	// /metrics scrape never sees a done/cancelled/failed job that the
	// counters do not yet account for.
	switch {
	case err == nil:
		// Final checkpoint: the finished object is archived and
		// previewable like any snapshot.
		if ckErr := s.snapshot(j, j.completedIters(), slices); ckErr != nil {
			s.met.failed.Add(1)
			s.finishRun(j, Failed, ckErr)
			return
		}
		s.met.completed.Add(1)
		s.finishRun(j, Done, nil)
	case errors.Is(err, context.Canceled):
		// Preemption and cancellation share the engine's stop path —
		// the context fires, the engine returns its partial object at
		// the iteration boundary. A service-initiated preemption
		// requeues the job warm instead of finishing it.
		if s.requeuePreempted(j, slices) {
			return
		}
		// Cancelled at an iteration boundary: persist the partial
		// object so the job can resume exactly where it stopped.
		if slices != nil {
			if ckErr := s.snapshot(j, j.completedIters(), slices); ckErr != nil {
				s.met.failed.Add(1)
				s.finishRun(j, Failed, ckErr)
				return
			}
		}
		s.met.cancelled.Add(1)
		s.finishRun(j, Cancelled, nil)
	default:
		// Engines that fail with partial progress (e.g. a streaming
		// job exhausting stream.ErrIterationBudget on a stalled feed)
		// still hand back their slices — checkpoint them so the work
		// is salvageable. Best effort: the job is failing anyway.
		if slices != nil {
			s.snapshot(j, j.completedIters(), slices)
		}
		s.met.failed.Add(1)
		s.finishRun(j, Failed, err)
	}
}

// unregisterRunning drops a job from the running set.
func (s *Service) unregisterRunning(j *Job) {
	s.mu.Lock()
	delete(s.running, j.id)
	s.mu.Unlock()
}

// finishRun unregisters and finishes a pool-executed job.
func (s *Service) finishRun(j *Job, state State, err error) {
	s.unregisterRunning(j)
	s.finishJob(j, state, err)
}

// requeuePreempted puts a preempted job back in the queue instead of
// finishing it: the boundary object becomes a checkpoint AND the
// warm-start state, the remaining iterations are re-priced, and the
// job keeps its identity — same ID, same trace, preempted_count
// incremented, recovered_from naming the checkpoint it will restart
// from. A client watching the job sees queued→running→queued→running
// with no lost iterations; the final object is bit-identical to an
// uninterrupted run because the serial engines are deterministic and
// the checkpoint holds the exact boundary state.
//
// Declines (returns false, normal cancel path proceeds) when the stop
// was user-initiated, the service is draining, or the job already
// finished its iterations.
func (s *Service) requeuePreempted(j *Job, slices []*grid.Complex2D) bool {
	j.mu.Lock()
	wants := j.preempt && !j.userCancel
	j.mu.Unlock()
	if !wants {
		return false
	}
	completed := j.completedIters()
	if slices != nil {
		// The boundary checkpoint: durable anchor for crash recovery
		// and the exact warm-start state for the re-run. A write
		// failure falls through to the normal cancel path (which will
		// retry the checkpoint and fail visibly if the disk is gone).
		if ckErr := s.snapshot(j, completed, slices); ckErr != nil {
			return false
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	j.mu.Lock()
	total := j.params.StartIter + j.params.Iterations
	if j.state != Running || completed >= total {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	if slices != nil {
		// j.snapshot is the object s.snapshot just took over; its
		// arrays are immutable from here on, safe to warm-start from.
		j.params.InitialObject = j.snapshot
		j.params.StartIter = completed
		j.params.Iterations = total - completed
		j.iter = completed
		j.recoveredFrom = fmt.Sprintf("checkpoint@%d", completed)
	}
	now := time.Now()
	if !j.lastBoundary.IsZero() {
		j.tr.Record("preempted", j.rootSpan, obs.RankCoordinator, completed,
			j.lastBoundary, now.Sub(j.lastBoundary))
	}
	j.lastBoundary = time.Time{}
	j.started = time.Time{}
	j.enqueuedAt = now
	j.preempt = false
	j.preemptedCount++
	j.state = Queued
	ctx, cancel := context.WithCancel(context.Background())
	j.ctx, j.cancel = ctx, cancel
	j.publishLocked(Event{Type: "state", State: Queued.String()})
	j.mu.Unlock()
	delete(s.running, j.id)
	s.q.Push(s.schedItemLocked(j))
	ts := s.tenantLocked(j.params.Tenant)
	ts.preempted++
	s.notify.Signal()
	s.mu.Unlock()

	s.met.preempted.Add(1)
	j.rec.Record(flight.Event{Kind: "preempted", Iter: completed,
		Detail: fmt.Sprintf("yielded to interactive work at iteration %d", completed)})
	s.log.Info("job preempted", "job_id", j.id, "request_id", j.RequestID(),
		"tenant", j.params.Tenant, "iter", completed)
	s.logPreempt(j)
	return true
}

func (j *Job) completedIters() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.iter
}

// hooks builds the one engine.Hooks value every execution path of a job
// shares: progress, per-rank timing and snapshot plumbing into the job
// record, the WAL and the metrics. Indices arrive 0-based and already
// offset by the job's StartIter; the job record counts completed
// iterations.
func (s *Service) hooks(j *Job) engine.Hooks {
	return engine.Hooks{
		Ctx: j.ctx,
		OnIteration: func(iter int, cost float64) {
			s.observeIteration(j, j.recordIteration(iter+1, cost))
			s.logIteration(j, iter+1, cost)
			s.met.iterations.Add(1)
		},
		OnRankStats: func(rank, iter int, computeNS, commNS int64) {
			s.recordRankStats(j, rank, iter+1, computeNS, commNS)
		},
		// The one copy: the engine keeps mutating a live snapshot's slices.
		OnSnapshot: func(iter int, slices []*grid.Complex2D) error {
			return s.snapshot(j, iter+1, cloneSlices(slices))
		},
	}
}

// execute runs the job's engine. On cancellation it returns the
// engine's partial slices together with context.Canceled.
func (s *Service) execute(j *Job) ([]*grid.Complex2D, error) {
	spec := j.params.spec()
	spec.Timeout = s.cfg.Timeout
	if spec.IntraWorkers == 0 && !j.params.Grid {
		// A job in this process gets its share of the cores for the
		// goroutines of its serial run or of each gd rank.
		spec.IntraWorkers = max(1, runtime.GOMAXPROCS(0)/s.cfg.Workers)
	}
	if j.streaming {
		return s.executeStream(j, spec)
	}
	if j.params.Grid {
		return s.executeGrid(j, spec)
	}
	var prob *solver.Problem
	if err := s.readSpool(j.data.path, func(r io.Reader) (err error) {
		prob, err = dataio.Read(r)
		return err
	}); err != nil {
		return nil, fmt.Errorf("jobs: reading the dataset spool: %w", err)
	}
	j.beginIterations()
	r, err := engine.Run(prob, j.params.InitialObject, spec, s.hooks(j))
	if r == nil {
		return nil, err
	}
	return r.Slices, err
}

// executeStream runs a Streaming job: the engine folds ingest
// arrivals at iteration boundaries and, once the stream closes, runs
// the tail over the complete set. Iteration, fold, snapshot and
// checkpoint plumbing is identical to the batch path, so previews,
// /metrics and SSE events behave the same for both job kinds.
func (s *Service) executeStream(j *Job, spec engine.Spec) ([]*grid.Complex2D, error) {
	j.beginIterations()
	res, err := stream.Run(j.hdr, j.ingest, stream.Options{
		Spec:          spec,
		Hooks:         s.hooks(j),
		FoldEvery:     j.params.FoldEvery,
		MaxIterations: j.params.MaxIterations,
		OnFold: func(_, _, active int) {
			j.recordFold(active)
			s.met.folds.Add(1)
		},
		OnFoldTimed: func(iter, _, _ int, start time.Time, d time.Duration) {
			j.tr.Record("fold", j.rootSpan, obs.RankCoordinator, iter, start, d)
		},
	})
	if res == nil {
		return nil, err
	}
	return res.Slices, err
}

// Shutdown is the graceful stop: it closes the intake (Submit returns
// ErrClosed), cancels every queued and running job — each running job
// stops at its next iteration boundary and flushes a final OBJCKv1
// checkpoint, so a restarted server can resume the work — and waits
// for the workers to drain. Safe to call more than once and
// concurrently with Close.
func (s *Service) Shutdown() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.notify.Broadcast()
	}
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		// Cancel is a no-op beyond ErrFinished for jobs that already
		// completed; running streaming jobs wake from their ingest
		// wait through the job context.
		s.Cancel(id)
	}
	s.wg.Wait()
	if s.grid != nil {
		s.grid.Close()
	}
	// Flush the WAL tail: a SIGTERM drain must leave nothing unsynced,
	// so the next start replays the registry with zero recovery work.
	if err := s.store.Sync(); err != nil {
		s.met.walErrors.Add(1)
	}
}

// snapshot publishes the object as the job's preview and writes the
// job's OBJCKv1 checkpoint atomically (tmp + sync + rename), then logs
// the checkpoint to the store — the durable anchor recovery warm-starts
// from. It takes ownership of slices: nothing may mutate them after the
// call.
//
// Each checkpoint gets its own file (job-0001-i8.objck): a checkpoint
// record in the log always names a file whose content is exactly the
// object at that iteration, no matter where a crash lands. Overwriting
// one shared path — the pre-observability behavior — had a window
// between the rename and the log append where the file was already
// ahead of the last record, and recovery warm-started from mislabeled
// bytes. The superseded file is removed only after the new record is
// in the log, so the log never points at a missing file.
func (s *Service) snapshot(j *Job, completed int, slices []*grid.Complex2D) error {
	j.setSnapshot(slices, completed)
	path := filepath.Join(s.cfg.SpoolDir, fmt.Sprintf("%s-i%d.objck", j.id, completed))
	start := time.Now()
	err := s.store.WriteCheckpoint(path, slices)
	d := time.Since(start)
	s.hist.checkpoint.Observe(d)
	j.tr.Record("checkpoint", j.rootSpan, obs.RankCoordinator, completed, start, d)
	if err != nil {
		return err
	}
	logged := s.logCheckpoint(j, path, completed)
	s.met.checkpoints.Add(1)
	if prev := j.setCheckpoint(path, completed); logged && prev != "" && prev != path {
		s.store.Remove(prev) // best effort; a stray file is harmless
	}
	return nil
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Len()
}

// Trace returns a job's summary together with its recorded span
// timeline (point-in-time copy; a running job keeps appending). Jobs
// restored as terminal history after a restart have no spans — the
// timeline died with the process that recorded it.
func (s *Service) Trace(id string) (Info, []obs.Span, error) {
	j, ok := s.Get(id)
	if !ok {
		return Info{}, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.Info(0), j.Trace().Spans(), nil
}
