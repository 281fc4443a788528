package jobs

// Fairness capstone: the multi-tenant scheduler proven at the service
// level. Preemption is lossless (bit-identical result), WFQ dispatch
// order follows the configured weights, a starved tenant under FIFO
// completes promptly under WFQ, every 429-class rejection carries a
// live Retry-After that shrinks as the queue drains, and tenant quotas
// admit honestly. All tests are deterministic under -race: the worker
// pool is plugged with a frame-starved streaming job (it blocks in the
// ingest wait, holds the worker, never feeds the runtime EWMA) so the
// backlog's dispatch order is decided entirely by the queue policy.

import (
	"errors"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs/sched"
)

// plugWorker occupies one pool worker with a streaming job that never
// receives frames: it blocks waiting on the ingest until released.
// Cancel (via the returned release func) frees the worker without
// feeding the fleet runtime EWMA — cancelled jobs are not observed —
// so scheduling costs stay at their deterministic defaults.
func plugWorker(t *testing.T, s *Service) (j *Job, release func()) {
	t.Helper()
	prob := tinyProblem(t)
	j, err := s.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "plug running", func() bool { return j.State() == Running })
	var released bool
	return j, func() {
		if released {
			return
		}
		released = true
		s.Cancel(j.ID())
		waitFor(t, "plug cancelled", func() bool { return j.State().Terminal() })
	}
}

// startedOrder returns the tenants of the given jobs in the order the
// pool started them. Only meaningful once every job has started.
func startedOrder(jobs []*Job) []string {
	type row struct {
		tenant  string
		started time.Time
	}
	rows := make([]row, 0, len(jobs))
	for _, j := range jobs {
		info := j.Info(0)
		rows = append(rows, row{info.Tenant, info.Started})
	}
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && rows[k].started.Before(rows[k-1].started); k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
		}
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.tenant
	}
	return out
}

// TestInteractivePreemptionBitIdentical is the lossless-preemption
// proof: an interactive submission displaces a running bulk job at an
// iteration boundary; the bulk job re-queues from its checkpoint, runs
// to completion, and its final object is bit-identical to an
// uninterrupted run of the same parameters.
func TestInteractivePreemptionBitIdentical(t *testing.T) {
	prob := tinyProblem(t)
	// Enough iterations that the job is reliably observable mid-run
	// (single iterations on the 16-frame problem are sub-millisecond).
	const iters = 2000
	params := Params{Algorithm: "serial", Iterations: iters}

	// Reference: the same reconstruction, never interrupted.
	ref := newTestService(t, Config{Workers: 1, QueueDepth: 8, CheckpointEvery: 2})
	rj, err := ref.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reference done", func() bool { return rj.State() == Done })
	want, wantIter := mustObject(t, rj)

	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 8, CheckpointEvery: 2,
		Sched: sched.Config{Policy: "wfq"},
	})
	bulk, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bulk mid-run", func() bool {
		return bulk.State() == Running && bulk.Info(0).Iter >= 2
	})

	vip, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 3, Tenant: "vip", Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	// The bulk job must be displaced exactly once and carry the
	// checkpoint provenance on its wire-visible info.
	waitFor(t, "bulk preempted", func() bool { return bulk.Info(0).PreemptedCount >= 1 })
	waitFor(t, "interactive done", func() bool { return vip.State() == Done })
	waitFor(t, "bulk done", func() bool { return bulk.State().Terminal() })

	info := bulk.Info(0)
	if bulk.State() != Done {
		t.Fatalf("preempted bulk job finished %v: %s", bulk.State(), info.Error)
	}
	if info.PreemptedCount != 1 {
		t.Errorf("preempted_count = %d, want 1", info.PreemptedCount)
	}
	if len(info.RecoveredFrom) < len("checkpoint@") || info.RecoveredFrom[:len("checkpoint@")] != "checkpoint@" {
		t.Errorf("recovered_from = %q, want checkpoint@<iter>", info.RecoveredFrom)
	}
	if info.Iter != iters {
		t.Errorf("bulk finished at iteration %d, want %d", info.Iter, iters)
	}

	got, gotIter := mustObject(t, bulk)
	if gotIter != wantIter {
		t.Fatalf("final snapshot at iter %d, reference at %d", gotIter, wantIter)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d slices, reference %d", len(got), len(want))
	}
	for si := range got {
		if got[si].Bounds != want[si].Bounds {
			t.Fatalf("slice %d bounds %v, reference %v", si, got[si].Bounds, want[si].Bounds)
		}
		for i := range got[si].Data {
			if got[si].Data[i] != want[si].Data[i] {
				t.Fatalf("slice %d sample %d: preempted run %v, reference %v — result not bit-identical",
					si, i, got[si].Data[i], want[si].Data[i])
			}
		}
	}

	// The displaced work is visible in the tenant rollup.
	st := s.Status()
	if st.SchedPolicy != "wfq" {
		t.Errorf("status policy %q, want wfq", st.SchedPolicy)
	}
	for _, ten := range st.Tenants {
		if ten.Name == AnonymousTenant && ten.Preempted != 1 {
			t.Errorf("anonymous tenant preempted_total = %d, want 1", ten.Preempted)
		}
	}
}

// TestWFQDispatchFollowsWeights plugs the single worker, queues six
// jobs each for a weight-3 and a weight-1 tenant, releases the plug,
// and checks the start-time-fair dispatch order: the first eight
// starts split 6:2 between the tenants — the configured 3:1 ratio.
func TestWFQDispatchFollowsWeights(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 16,
		Sched: sched.Config{
			Policy: "wfq",
			Tenants: map[string]sched.TenantConfig{
				"alpha": {Weight: 3},
				"beta":  {Weight: 1},
			},
		},
	})
	_, release := plugWorker(t, s)
	defer release()

	var all []*Job
	for _, tenant := range []string{"alpha", "beta"} {
		for i := 0; i < 6; i++ {
			j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 2, Tenant: tenant})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
		}
	}
	release()
	for _, j := range all {
		waitFor(t, "backlog drained", func() bool { return j.State() == Done })
	}

	order := startedOrder(all)
	alpha := 0
	for _, tenant := range order[:8] {
		if tenant == "alpha" {
			alpha++
		}
	}
	if alpha != 6 {
		t.Errorf("first 8 dispatches: %d alpha / %d beta (order %v), want 6/2 for 3:1 weights",
			alpha, 8-alpha, order)
	}
	// Both tenants' ledgers accrued completed work.
	for _, ten := range s.Status().Tenants {
		if (ten.Name == "alpha" || ten.Name == "beta") && ten.CompletedCostSeconds <= 0 {
			t.Errorf("tenant %s has no completed work in the fair-share ledger", ten.Name)
		}
		if ten.Name == "alpha" && ten.Weight != 3 {
			t.Errorf("alpha weight %v, want 3", ten.Weight)
		}
	}
}

// TestStarvationFIFOVersusWFQ is the starved-tenant scenario: ten bulk
// jobs from one tenant ahead of a single interactive job from another.
// Under FIFO the interactive job starts dead last; under WFQ the
// strict interactive lane dispatches it first.
func TestStarvationFIFOVersusWFQ(t *testing.T) {
	run := func(t *testing.T, cfg sched.Config) []string {
		prob := tinyProblem(t)
		s := newTestService(t, Config{Workers: 1, QueueDepth: 16, Sched: cfg})
		_, release := plugWorker(t, s)
		defer release()

		var all []*Job
		for i := 0; i < 10; i++ {
			j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 2, Tenant: "batchfarm"})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
		}
		vip, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 2, Tenant: "vip", Priority: "interactive"})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, vip)
		release()
		for _, j := range all {
			waitFor(t, "backlog drained", func() bool { return j.State() == Done })
		}
		return startedOrder(all)
	}

	t.Run("fifo_starves", func(t *testing.T) {
		order := run(t, sched.Config{})
		if got := order[len(order)-1]; got != "vip" {
			t.Errorf("FIFO dispatch order %v: interactive tenant started %q-last, want dead last (arrival order)", order, got)
		}
	})
	t.Run("wfq_rescues", func(t *testing.T) {
		order := run(t, sched.Config{Policy: "wfq"})
		if got := order[0]; got != "vip" {
			t.Errorf("WFQ dispatch order %v: first start is %q, want the interactive vip job", order, got)
		}
	})
}

// TestRetryAfterShrinksAsQueueDrains pins the honest-admission
// satellite in plain FIFO mode: the queue-full Retry-After is derived
// from the live backlog, so cancelling queued work strictly shrinks
// the hint a new arrival would receive.
func TestRetryAfterShrinksAsQueueDrains(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	_, release := plugWorker(t, s)
	defer release()

	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	hints := []time.Duration{s.RetryAfterHint()}
	for _, j := range queued {
		if err := s.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
		hints = append(hints, s.RetryAfterHint())
	}
	for i := 1; i < len(hints); i++ {
		if hints[i] >= hints[i-1] {
			t.Errorf("retry hint after draining %d jobs = %v, not below %v — hint is not live",
				i, hints[i], hints[i-1])
		}
	}
	if last := hints[len(hints)-1]; last < minRetryAfter {
		t.Errorf("drained hint %v below the %v floor", last, minRetryAfter)
	}
}

// TestQueueFullCarriesLiveRetryAfter asserts the rejection itself
// carries the live hint: a submit refused by the bounded FIFO wraps
// ErrQueueFull in a Backpressure whose Retry-After covers the backlog.
func TestQueueFullCarriesLiveRetryAfter(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	_, release := plugWorker(t, s)
	defer release()

	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}
	var bp *Backpressure
	if !errors.As(err, &bp) {
		t.Fatalf("queue-full rejection %v carries no Backpressure hint", err)
	}
	if bp.RetryAfter < minRetryAfter {
		t.Errorf("queue-full Retry-After %v below the %v floor", bp.RetryAfter, minRetryAfter)
	}
}

// TestInteractiveReserveShedsBulkFirst: with a reserve slot held back,
// bulk submissions shed one slot early while interactive ones still
// land.
func TestInteractiveReserveShedsBulkFirst(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 2,
		Sched: sched.Config{Policy: "wfq", InteractiveReserve: 1},
	})
	plug, release := plugWorker(t, s)
	defer release()

	// Depth 1 of 2: at the bulk limit (QueueDepth - reserve).
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("bulk submit into reserve: got %v, want ErrQueueFull", err)
	}
	vip, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "vip", Priority: "interactive"})
	if err != nil {
		t.Fatalf("interactive submit into reserve: %v", err)
	}
	// The reserve slot was the last one.
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "vip", Priority: "interactive"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive submit past full depth: got %v, want ErrQueueFull", err)
	}
	_ = plug
	_ = vip
}

// TestTenantConcurrencyQuota pins the max-active cap: the tenant's
// second in-flight job is refused with a Backpressure-wrapped
// ErrQuotaExceeded, other tenants are unaffected, and releasing the
// slot re-admits.
func TestTenantConcurrencyQuota(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 8,
		Sched: sched.Config{
			Policy:  "wfq",
			Tenants: map[string]sched.TenantConfig{"capped": {Weight: 1, MaxActive: 1}},
		},
	})
	_, release := plugWorker(t, s)
	defer release()

	first, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "capped"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("capped tenant second submit: got %v, want ErrQuotaExceeded", err)
	}
	var bp *Backpressure
	if !errors.As(err, &bp) || bp.RetryAfter < minRetryAfter {
		t.Fatalf("quota rejection %v lacks a live Retry-After", err)
	}
	// The cap is per tenant, not global.
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "free"}); err != nil {
		t.Fatalf("uncapped tenant blocked by neighbour's quota: %v", err)
	}
	// Cancelling the in-flight job releases the slot.
	if err := s.Cancel(first.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 5, Tenant: "capped"}); err != nil {
		t.Fatalf("capped tenant after slot release: %v", err)
	}

	for _, ten := range s.Status().Tenants {
		if ten.Name == "capped" {
			if ten.QuotaRejections != 1 {
				t.Errorf("capped tenant quota_rejections_total = %d, want 1", ten.QuotaRejections)
			}
			if ten.MaxActive != 1 {
				t.Errorf("capped tenant max_active = %d, want 1", ten.MaxActive)
			}
		}
	}
}

// TestTenantIngestQuota pins the ingest-byte quota: a streaming
// tenant's frames are charged against its configured budget and the
// overflow append is refused with ErrQuotaExceeded plus a hint, while
// the refund on release frees the budget for the next stream.
func TestTenantIngestQuota(t *testing.T) {
	prob := tinyProblem(t)
	hdr := dataio.HeaderFromProblem(prob)
	frames := dataio.FramesFromProblem(prob)
	// Budget for roughly four frames of this geometry.
	quota := 4 * frameBytes(prob.WindowN)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 8,
		Sched: sched.Config{
			Policy:  "wfq",
			Tenants: map[string]sched.TenantConfig{"metered": {Weight: 1, IngestBytes: quota}},
		},
	})
	// Keep the stream queued so appended frames stay resident.
	_, release := plugWorker(t, s)
	defer release()

	j, err := s.SubmitStreaming(hdr, Params{Algorithm: "serial", Iterations: 2, Tenant: "metered"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendFrames(j.ID(), frames[:4]); err != nil {
		t.Fatalf("append within quota: %v", err)
	}
	_, err = s.AppendFrames(j.ID(), frames[4:5])
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("append past quota: got %v, want ErrQuotaExceeded", err)
	}
	var bp *Backpressure
	if !errors.As(err, &bp) || bp.RetryAfter < minRetryAfter {
		t.Fatalf("ingest quota rejection %v lacks a live Retry-After", err)
	}

	// Cancelling the stream refunds its resident bytes.
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream cancelled", func() bool { return j.State().Terminal() })
	j2, err := s.SubmitStreaming(hdr, Params{Algorithm: "serial", Iterations: 2, Tenant: "metered"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendFrames(j2.ID(), frames[:4]); err != nil {
		t.Fatalf("append after refund: %v", err)
	}
	// The stream is never closed; cancel it while still queued so the
	// pool can drain at service close.
	if err := s.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
}
