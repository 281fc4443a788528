package jobs

// Store glue: how the service writes its lifecycle into a
// store.Store and how NewService replays a store.Recovery back into a
// live registry. Everything here is a no-op when the service runs on
// the in-memory store (store.Mem), so a service without -state-dir
// behaves exactly as before durability existed.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/stream"

	"encoding/json"
)

// marshalParams encodes the WAL submit record's parameters: Params'
// own JSON shape, minus the warm-start object (spooled separately).
func marshalParams(p Params) json.RawMessage {
	// Write the defaults as absent keys: an anonymous bulk submission
	// serializes byte-identically to a pre-sched record, so enabling
	// the scheduler does not fork the WAL format for unkeyed traffic.
	if p.Tenant == AnonymousTenant {
		p.Tenant = ""
	}
	if p.Priority == sched.Bulk.String() {
		p.Priority = ""
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil
	}
	return b
}

func unmarshalParams(raw json.RawMessage) (Params, error) {
	if len(raw) == 0 {
		return Params{}, errors.New("no parameters recorded")
	}
	var p Params
	if err := json.Unmarshal(raw, &p); err != nil {
		return Params{}, err
	}
	// Version tolerance: submit records written before the scheduler
	// existed carry no tenant/priority keys; they recover as the
	// anonymous tenant's bulk work, exactly how they were scheduled
	// when written.
	if p.Tenant == "" {
		p.Tenant = AnonymousTenant
	}
	if p.Priority == "" {
		p.Priority = sched.Bulk.String()
	}
	return p, nil
}

func stateFromString(s string) (State, bool) {
	for _, st := range []State{Queued, Running, Done, Failed, Cancelled} {
		if st.String() == s {
			return st, true
		}
	}
	return Queued, false
}

// idNumber parses the numeric suffix of a service-assigned job ID
// ("job-0042" → 42), -1 for foreign IDs.
func idNumber(id string) int {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil {
			return n
		}
	}
	return -1
}

// persistSubmit makes an accepted submission durable: payloads are
// spooled first (an upload, before its job existed), then the submit
// record — synced — references them, so the WAL never points at a
// payload not fully on disk. Runs after enqueue (the ID is assigned
// there); replay tolerates a worker's start record landing first.
func (s *Service) persistSubmit(j *Job, key string) error {
	if !s.store.Durable() {
		return nil
	}
	j.mu.Lock()
	init := j.params.InitialObject
	p := j.params
	rec := store.SubmitRecord{
		ID: j.id, Streaming: j.streaming, Key: key,
		ResumedFrom: j.resumedFrom, RecoveredFrom: j.recoveredFrom,
		Created: j.created,
	}
	if j.data != nil {
		rec.Dataset = j.data.path
	}
	j.mu.Unlock()
	rec.Params = marshalParams(p)

	var err error
	if j.streaming {
		rec.Dataset, err = s.store.SpoolStreamOpen(j.id, j.hdr)
	} else {
		rec.InitObject, err = s.store.SpoolInitObject(j.id, init)
	}
	if err != nil {
		return err
	}
	return s.store.LogSubmit(rec)
}

// Worker-side logging is best effort: a store hiccup mid-run costs
// durability of that transition (recovery redoes more work), never the
// reconstruction itself. Failures are counted for /metrics. These
// helpers double as the structured-log points for the job lifecycle:
// they run at every transition site, durable store or not.

func (s *Service) logStart(j *Job) {
	s.log.Info("job started", "job_id", j.id, "request_id", j.RequestID(),
		"queue_wait", j.queueWait())
	if !s.store.Durable() {
		return
	}
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	if err := s.store.LogStart(j.id, started); err != nil {
		s.met.walErrors.Add(1)
	}
}

func (s *Service) logIteration(j *Job, completed int, cost float64) {
	s.log.Debug("iteration", "job_id", j.id, "request_id", j.RequestID(),
		"iter", completed, "cost", cost)
	if !s.store.Durable() {
		return
	}
	if err := s.store.LogIteration(j.id, completed, cost); err != nil {
		s.met.walErrors.Add(1)
	}
}

// logCheckpoint reports whether the record landed (always true for
// non-durable stores — with no recovery, a superseded checkpoint file
// is removable regardless).
func (s *Service) logCheckpoint(j *Job, path string, completed int) bool {
	s.log.Debug("checkpoint written", "job_id", j.id, "request_id", j.RequestID(),
		"iter", completed, "path", path)
	if !s.store.Durable() {
		return true
	}
	if err := s.store.LogCheckpoint(j.id, path, completed); err != nil {
		s.met.walErrors.Add(1)
		return false
	}
	return true
}

func (s *Service) logFinish(j *Job, state State, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if err != nil {
		s.log.Info("job finished", "job_id", j.id, "request_id", j.RequestID(),
			"state", state.String(), "error", msg)
	} else {
		s.log.Info("job finished", "job_id", j.id, "request_id", j.RequestID(),
			"state", state.String())
	}
	if !s.store.Durable() {
		return
	}
	if lerr := s.store.LogFinish(j.id, state.String(), msg, time.Now()); lerr != nil {
		s.met.walErrors.Add(1)
	}
}

// recoverJobs replays a store.Recovery into the registry before the
// worker pool starts: terminal jobs come back as history, interrupted
// jobs re-enter the queue UNDER THEIR ORIGINAL IDs — a client polling
// job-0007 across the crash keeps polling job-0007 — warm-started from
// their last checkpoint (batch) or refolded from their spooled frames
// (streaming). Runs single-threaded from NewService; no locks needed.
func (s *Service) recoverJobs(rec *store.Recovery) {
	s.replayRecords = rec.Records
	s.replayTorn = rec.Torn
	for i := range rec.Jobs {
		jr := &rec.Jobs[i]
		if n := idNumber(jr.ID); n > s.nextID {
			s.nextID = n
		}
		j := s.recoverJob(jr)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state == Queued {
			// Through the scheduler, not a raw append: a wfq restart
			// re-orders the recovered backlog by class and tenant share
			// exactly like live submissions — an interactive job that
			// was next in line before the crash is next in line after.
			// Recovery never RE-checks quotas (the work was already
			// admitted once; dropping it now would lose accepted jobs),
			// but it does re-charge the tenant ledger so post-restart
			// admission sees the true in-flight count.
			ts := s.tenantLocked(j.params.Tenant)
			ts.active++
			j.tenantLabel = ts.metricLabel
			j.idemKey = jr.Key
			s.q.Push(s.schedItemLocked(j))
		}
	}
	for key, id := range rec.Keys {
		if j, ok := s.jobs[id]; ok {
			s.idem[key] = j
		}
	}
}

// RecoveryStats reports what startup recovery did: interrupted jobs
// re-enqueued, terminal jobs restored as history, jobs whose payloads
// could not be reloaded, and the WAL records replayed / torn records
// dropped doing it.
func (s *Service) RecoveryStats() (recovered, restored, unrecoverable int64, records, torn int) {
	return s.met.recovered.Load(), s.met.restored.Load(), s.met.unrecovered.Load(),
		s.replayRecords, s.replayTorn
}

// recoverJob rebuilds one job from its merged WAL record.
func (s *Service) recoverJob(jr *store.JobRecord) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id: jr.ID, ctx: ctx, cancel: cancel,
		streaming: jr.Streaming, resumedFrom: jr.ResumedFrom,
		created: jr.Created,
	}
	params, perr := unmarshalParams(jr.Params)
	j.params = params

	state, ok := stateFromString(jr.State)
	if !ok || perr != nil {
		err := perr
		if err == nil {
			err = fmt.Errorf("unknown state %q", jr.State)
		}
		return s.unrecoverable(j, err)
	}

	if state.Terminal() {
		// History: restore verbatim. The worker pool never sees it.
		j.state = state
		j.iter = jr.Iter
		j.cost = jr.Cost
		j.costHistory = jr.CostHistory
		j.checkpointPath = jr.CheckpointPath
		j.checkpointIter = jr.CheckpointIter
		j.recoveredFrom = jr.RecoveredFrom
		j.recFrames = jr.Frames
		j.recEOF = jr.EOF
		j.started = jr.Started
		j.finished = jr.Finished
		if jr.Error != "" {
			j.err = errors.New(jr.Error)
		}
		if !jr.Streaming && state != Done && jr.CheckpointPath != "" {
			j.data = &Dataset{path: jr.Dataset} // for Resume, which scans it
		}
		cancel()
		s.met.restored.Add(1)
		return j
	}

	// Interrupted (queued or running at crash time): re-enqueue.
	if jr.Streaming {
		hdr, frames, eof, err := s.store.LoadStream(jr.Dataset)
		if err != nil {
			return s.unrecoverable(j, fmt.Errorf("replaying stream spool: %w", err))
		}
		capacity := params.IngestCapacity
		if capacity == 0 {
			capacity = s.cfg.IngestFrames
		}
		if capacity < len(frames) {
			capacity = len(frames)
		}
		ingest := stream.NewIngest(capacity)
		if len(frames) > 0 {
			if _, err := ingest.Append(frames); err != nil {
				return s.unrecoverable(j, fmt.Errorf("restoring %d spooled frames: %w", len(frames), err))
			}
		}
		if eof {
			ingest.CloseEOF()
		}
		j.hdr = hdr
		j.ingest = ingest
		j.recoveredFrom = "stream"
	} else {
		total := params.StartIter + params.Iterations
		if jr.CheckpointPath != "" && jr.CheckpointIter >= total {
			// The final checkpoint landed; only the terminal record was
			// lost. Nothing to re-run — restore as Done.
			j.state = Done
			j.iter = jr.CheckpointIter
			j.cost = jr.Cost
			j.costHistory = jr.CostHistory
			j.checkpointPath = jr.CheckpointPath
			j.checkpointIter = jr.CheckpointIter
			j.recoveredFrom = fmt.Sprintf("checkpoint@%d", jr.CheckpointIter)
			j.started = jr.Started
			j.finished = jr.Started // best available bound; the true instant died with the process
			cancel()
			s.met.restored.Add(1)
			return j
		}
		ds, err := s.scanSpool(jr.Dataset)
		if err != nil {
			return s.unrecoverable(j, fmt.Errorf("reloading dataset: %w", err))
		}
		j.data = ds
		if jr.CheckpointPath != "" {
			slices, err := s.store.LoadObject(jr.CheckpointPath)
			if err != nil {
				return s.unrecoverable(j, fmt.Errorf("reloading checkpoint: %w", err))
			}
			j.params.InitialObject = slices
			j.params.StartIter = jr.CheckpointIter
			j.params.Iterations = total - jr.CheckpointIter
			j.iter = jr.CheckpointIter
			j.cost = jr.Cost
			j.checkpointPath = jr.CheckpointPath
			j.checkpointIter = jr.CheckpointIter
			j.recoveredFrom = fmt.Sprintf("checkpoint@%d", jr.CheckpointIter)
		} else {
			if jr.InitObject != "" {
				slices, err := s.store.LoadObject(jr.InitObject)
				if err != nil {
					return s.unrecoverable(j, fmt.Errorf("reloading warm-start object: %w", err))
				}
				j.params.InitialObject = slices
			}
			j.iter = j.params.StartIter
			j.recoveredFrom = "scratch"
		}
	}
	if j.params.Grid && s.grid == nil {
		// The grid coordinator did not come back with us; the parallel
		// algorithms run identically on in-process goroutines.
		j.params.Grid = false
	}
	j.state = Queued
	// Re-enqueued jobs get a fresh trace: the pre-crash spans died with
	// the process, but the re-run is observable like any submission —
	// including a fresh runtime prediction for the remaining work.
	newTracedJob(j)
	s.attachAnalysis(j)
	s.met.recovered.Add(1)

	// Re-log the submission with the recovery-adjusted parameters so a
	// SECOND crash recovers from the same point, not the original one.
	rec := store.SubmitRecord{
		ID: j.id, Params: marshalParams(j.params), Streaming: j.streaming,
		Key: jr.Key, ResumedFrom: j.resumedFrom, RecoveredFrom: j.recoveredFrom,
		Dataset: jr.Dataset, InitObject: jr.InitObject, Created: j.created,
	}
	if err := s.store.LogSubmit(rec); err != nil {
		s.met.walErrors.Add(1)
	}
	return j
}

// logPreempt re-logs a preempted job's submission with its
// checkpoint-adjusted parameters (warm start, remaining iterations), so
// a crash while the job waits in the queue recovers it from the
// preemption point rather than from scratch. Same idea as the re-log in
// recoverJob; called from requeuePreempted with the adjusted params
// already in place.
func (s *Service) logPreempt(j *Job) {
	if !s.store.Durable() {
		return
	}
	j.mu.Lock()
	rec := store.SubmitRecord{
		ID: j.id, Params: marshalParams(j.params), Streaming: j.streaming,
		Key: j.idemKey, ResumedFrom: j.resumedFrom, RecoveredFrom: j.recoveredFrom,
		Dataset: j.data.path, Created: j.created,
	}
	j.mu.Unlock()
	if err := s.store.LogSubmit(rec); err != nil {
		s.met.walErrors.Add(1)
	}
}

// unrecoverable parks a job whose payloads could not be reloaded as
// Failed history: the loss is visible (state, error, /metrics counter)
// instead of silent.
func (s *Service) unrecoverable(j *Job, err error) *Job {
	j.state = Failed
	j.err = fmt.Errorf("jobs: unrecoverable after restart: %w", err)
	j.finished = time.Now()
	j.cancel()
	s.met.unrecovered.Add(1)
	return j
}
