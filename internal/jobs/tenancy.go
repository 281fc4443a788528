package jobs

// Tenancy: per-tenant fair-share accounting, admission quotas, and the
// honest Retry-After estimator. The accounting is always on — every
// submission lands on a tenant ("anonymous" without an API key) even
// under the FIFO policy — so per-tenant metrics and the /v1/status
// rollup do not change shape when an operator turns wfq on.
//
// All tenant state lives under the service mutex, in the same critical
// sections as the queue itself: an admission decision (queue depth,
// concurrent-job cap, ingest quota) and the enqueue it gates are
// atomic.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ptychopath/client"
	"ptychopath/internal/jobs/sched"
)

// Backpressure wraps a 429-class error (ErrQueueFull, ErrQuotaExceeded,
// stream.ErrIngestFull) with a Retry-After derived from live queue
// state: how long until the condition that rejected the caller is
// expected to clear. errors.Is still matches the wrapped sentinel; the
// HTTP layer additionally errors.As-extracts the hint for the problem
// envelope's retry_after_ms and the Retry-After header.
type Backpressure struct {
	Err        error
	RetryAfter time.Duration
}

func (b *Backpressure) Error() string { return b.Err.Error() }
func (b *Backpressure) Unwrap() error { return b.Err }

// minRetryAfter floors every hint: a zero Retry-After would tell
// clients to hammer the service in a tight loop.
const minRetryAfter = 100 * time.Millisecond

// tenantState is one tenant's live accounting. Guarded by Service.mu.
type tenantState struct {
	name   string
	weight float64
	// Quotas from the sched config (0 = unlimited).
	maxActive   int
	ingestQuota int64
	// metricLabel is the tenant's /metrics label: its own name for the
	// first Sched.MaxTenants distinct tenants, "other" beyond that cap
	// — per-tenant rows stay bounded no matter how many API keys hit
	// the service. Decided once at first sight, stable afterwards.
	metricLabel string

	active       int   // in-flight (queued + running) jobs
	ingestBytes  int64 // live ingest bytes held by the tenant's streaming jobs
	submitted    int64
	preempted    int64
	quotaRejects int64
	completedSec float64 // wall-clock seconds of finished work (fair-share ledger)
}

// tenantOverflowLabel aggregates tenants beyond the registry cap.
const tenantOverflowLabel = "other"

// tenantLocked returns (creating on demand) the tenant's state.
// Requires s.mu.
func (s *Service) tenantLocked(name string) *tenantState {
	if name == "" {
		name = AnonymousTenant
	}
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	tc := s.cfg.Sched.Tenants[name]
	ts := &tenantState{
		name:        name,
		weight:      s.cfg.Sched.Weight(name),
		maxActive:   tc.MaxActive,
		ingestQuota: tc.IngestBytes,
		metricLabel: name,
	}
	if len(s.tenants) >= s.cfg.Sched.MaxTenants {
		ts.metricLabel = tenantOverflowLabel
	}
	s.tenants[name] = ts
	s.tenantOrder = append(s.tenantOrder, name)
	return ts
}

// admitLocked is the tenant half of admission: concurrent-job cap.
// Charges the tenant on success. Requires s.mu.
func (s *Service) admitLocked(j *Job) error {
	ts := s.tenantLocked(j.params.Tenant)
	if ts.maxActive > 0 && ts.active >= ts.maxActive {
		ts.quotaRejects++
		s.met.quotaRejected.Add(1)
		return &Backpressure{
			Err: fmt.Errorf("%w: tenant %q has %d jobs in flight (max %d)",
				ErrQuotaExceeded, ts.name, ts.active, ts.maxActive),
			RetryAfter: s.tenantRetryLocked(ts),
		}
	}
	ts.active++
	ts.submitted++
	j.tenantLabel = ts.metricLabel
	return nil
}

// releaseTenantLocked returns a job's tenant charges (active slot,
// ingest bytes) and credits its completed work to the fair-share
// ledger. Idempotent per job — the terminal transition can be reached
// from several paths. Requires s.mu.
func (s *Service) releaseTenantLocked(j *Job, completedSec float64) {
	if j.tenantReleased {
		return
	}
	j.tenantReleased = true
	ts := s.tenantLocked(j.params.Tenant)
	if ts.active > 0 {
		ts.active--
	}
	ts.ingestBytes -= j.ingestedBytes
	if ts.ingestBytes < 0 {
		ts.ingestBytes = 0
	}
	ts.completedSec += completedSec
}

// releaseTenant is releaseTenantLocked for callers not holding s.mu.
func (s *Service) releaseTenant(j *Job, completedSec float64) {
	s.mu.Lock()
	s.releaseTenantLocked(j, completedSec)
	s.mu.Unlock()
}

// chargeIngest reserves n ingest bytes against the job's tenant quota,
// rejecting with a Backpressure-wrapped ErrQuotaExceeded when the
// reservation would exceed it.
func (s *Service) chargeIngest(j *Job, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(j.params.Tenant)
	if ts.ingestQuota > 0 && ts.ingestBytes+n > ts.ingestQuota {
		ts.quotaRejects++
		s.met.quotaRejected.Add(1)
		return &Backpressure{
			Err: fmt.Errorf("%w: tenant %q ingest quota %d bytes (holding %d, chunk %d)",
				ErrQuotaExceeded, ts.name, ts.ingestQuota, ts.ingestBytes, n),
			RetryAfter: s.ingestRetryHint(j),
		}
	}
	ts.ingestBytes += n
	j.ingestedBytes += n
	return nil
}

// refundIngest rolls back a reservation whose append failed.
func (s *Service) refundIngest(j *Job, n int64) {
	s.mu.Lock()
	ts := s.tenantLocked(j.params.Tenant)
	ts.ingestBytes -= n
	if ts.ingestBytes < 0 {
		ts.ingestBytes = 0
	}
	j.ingestedBytes -= n
	s.mu.Unlock()
}

// frameBytes estimates the resident cost of one ingest frame: the
// measurement pixels plus location metadata.
func frameBytes(windowN int) int64 {
	return int64(windowN)*int64(windowN)*8 + 16
}

// remainingSeconds estimates how much wall-clock work a job still has:
// observed per-iteration latency × remaining iterations when the job
// has run, the perfmodel prediction before that, the service-wide
// runtime EWMA when neither exists. fallback is that last resort.
func (j *Job) remainingSeconds(fallback float64) float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.params.StartIter + j.params.Iterations
	remaining := total - j.iter
	if remaining < 0 {
		remaining = 0
	}
	if j.streaming {
		// Open-ended: the stream decides. Use the fleet-wide average.
		return fallback
	}
	if d := j.lastIterDur.Seconds(); d > 0 && remaining > 0 {
		return d * float64(remaining)
	}
	if j.pred != nil && j.pred.Seconds > 0 {
		if j.params.Iterations > 0 && remaining < j.params.Iterations {
			return j.pred.Seconds * float64(remaining) / float64(j.params.Iterations)
		}
		return j.pred.Seconds
	}
	return fallback
}

// costFallbackSeconds is the virtual cost / retry estimate of a job
// nothing is known about yet.
const costFallbackSeconds = 1.0

// fallbackSeconds returns the fleet-wide runtime EWMA, or the static
// fallback before any job has finished.
func (s *Service) fallbackSeconds() float64 {
	if v, _ := s.runtime.value(); v > 0 {
		return v
	}
	return costFallbackSeconds
}

// schedItem wraps a job for the queue, priced at its remaining
// predicted work. Requires s.mu (assigns the scheduler sequence).
func (s *Service) schedItemLocked(j *Job) *sched.Item {
	s.seq++
	j.seq = s.seq
	class, _ := sched.ParseClass(j.params.Priority)
	return &sched.Item{
		ID: j.id, Tenant: j.params.Tenant, Class: class,
		Cost: j.remainingSeconds(s.fallbackSeconds()),
		Seq:  j.seq, Payload: j,
	}
}

// retryAfterLocked is the honest queue estimate: simulate the pool
// draining the current backlog — each running job finishes its
// remaining predicted seconds, then the queued items (in the
// scheduler's own dispatch order) greedily fill the earliest-free
// worker — and report when the FIRST slot a new arrival could take
// opens up. The value shrinks as the queue drains and grows as it
// fills, which is exactly what a 429's Retry-After promises. Requires
// s.mu.
func (s *Service) retryAfterLocked() time.Duration {
	fallback := s.fallbackSeconds()
	free := make([]float64, s.cfg.Workers)
	slot := 0
	for _, j := range s.running {
		if slot >= len(free) {
			break
		}
		free[slot] = j.remainingSeconds(fallback)
		slot++
	}
	for _, it := range s.q.Items() {
		// Earliest-free worker takes the next item.
		minI := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[minI] {
				minI = i
			}
		}
		cost := it.Cost
		if cost <= 0 {
			cost = costFallbackSeconds
		}
		free[minI] += cost
	}
	earliest := free[0]
	for _, f := range free[1:] {
		if f < earliest {
			earliest = f
		}
	}
	return floorRetry(time.Duration(earliest * float64(time.Second)))
}

// RetryAfterHint reports how long a submission rejected right now
// should wait before retrying — the live estimate behind every
// queue-full 429. Exported for tests and operational probes.
func (s *Service) RetryAfterHint() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked()
}

// ingestRetryHint estimates when a full (or quota-blocked) streaming
// ingest will have drained a fold's worth of frames: one fold period
// of observed iteration latency, or the fleet fallback cold.
func (s *Service) ingestRetryHint(j *Job) time.Duration {
	j.mu.Lock()
	d := j.lastIterDur
	fold := j.params.FoldEvery
	j.mu.Unlock()
	if fold <= 0 {
		fold = 1
	}
	sec := d.Seconds() * float64(fold)
	if sec <= 0 {
		sec = s.fallbackSeconds()
	}
	return floorRetry(time.Duration(sec * float64(time.Second)))
}

// tenantRetryLocked estimates when a tenant at its concurrent-job cap
// frees a slot: the smallest remaining time among its in-flight jobs.
// Requires s.mu.
func (s *Service) tenantRetryLocked(ts *tenantState) time.Duration {
	fallback := s.fallbackSeconds()
	best := math.Inf(1)
	for _, j := range s.running {
		if j.params.Tenant == ts.name {
			if r := j.remainingSeconds(fallback); r < best {
				best = r
			}
		}
	}
	for _, it := range s.q.Items() {
		if it.Tenant == ts.name {
			// A queued job frees its slot no sooner than it could start
			// plus run — approximate with the general queue estimate.
			if r := it.Cost; r < best {
				best = r
			}
		}
	}
	if math.IsInf(best, 1) {
		best = fallback
	}
	return floorRetry(time.Duration(best * float64(time.Second)))
}

func floorRetry(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	return d
}

// TenantStatus is one tenant's row in the /v1/status fairness rollup.
type TenantStatus = client.TenantStatus

// tenantStatusLocked snapshots the fairness rollup. Requires s.mu.
func (s *Service) tenantStatusLocked() []TenantStatus {
	if len(s.tenantOrder) == 0 {
		return nil
	}
	total := 0.0
	for _, name := range s.tenantOrder {
		total += s.tenants[name].completedSec
	}
	out := make([]TenantStatus, 0, len(s.tenantOrder))
	for _, name := range s.tenantOrder {
		ts := s.tenants[name]
		row := TenantStatus{
			Name: ts.name, Weight: ts.weight, Active: ts.active,
			MaxActive: ts.maxActive, IngestQuotaBytes: ts.ingestQuota,
			IngestBytes: ts.ingestBytes, Submitted: ts.submitted,
			Preempted: ts.preempted, QuotaRejections: ts.quotaRejects,
			CompletedCostSeconds: ts.completedSec,
		}
		if total > 0 {
			row.Share = ts.completedSec / total
		}
		out = append(out, row)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
