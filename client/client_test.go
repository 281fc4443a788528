package client_test

import (
	"bytes"
	"context"
	"errors"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/httpapi"
	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// testProblem builds a small synthetic dataset for the SDK tests.
func testProblem(t *testing.T) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 4, Rows: 4, StepPix: 5, RadiusPix: 6, MarginPix: 8})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// newClient spins up a full service + /v1 HTTP surface and a client
// pointed at it — the SDK tests run against the real stack.
func newClient(t *testing.T, cfg jobs.Config, opts ...client.Option) (*client.Client, *jobs.Service) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2
	}
	svc, err := jobs.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, svc
}

func datasetBytes(t *testing.T, prob *solver.Problem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.Write(&buf, prob); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClientBatchLifecycle is the SDK happy path end to end: submit,
// wait, inspect history, download preview and object, and hit the
// typed error paths of a finished job.
func TestClientBatchLifecycle(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	c, _ := newClient(t, jobs.Config{})

	job, err := c.Submit(ctx, client.SubmitRequest{
		Algorithm: "serial", Iterations: 4, CheckpointEvery: 2,
	}, bytes.NewReader(datasetBytes(t, prob)))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || (job.State != client.StateQueued && job.State != client.StateRunning) {
		t.Fatalf("submitted job: %+v", job)
	}

	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone || final.Iter != 4 || final.TotalIters != 4 {
		t.Fatalf("final job: %+v", final)
	}

	hist, err := c.History(ctx, job.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history has %d entries, want 4", len(hist))
	}
	short, err := c.History(ctx, job.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 2 || short[0] != hist[2] || short[1] != hist[3] {
		t.Fatalf("history tail %v, want last two of %v", short, hist)
	}

	raw, err := c.PreviewPNG(ctx, job.ID, client.PreviewOptions{Kind: "mag"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("preview is not a PNG: %v", err)
	}

	body, iters, err := c.Object(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dataio.ReadObject(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if iters != 4 || len(obj) != prob.Slices || !obj[0].Bounds.Eq(prob.ImageBounds()) {
		t.Fatalf("object: %d iters, %d slices over %v", iters, len(obj), obj[0].Bounds)
	}

	// Typed errors from a finished job.
	if _, err := c.Cancel(ctx, job.ID); !errors.Is(err, client.ErrJobFinished) {
		t.Fatalf("cancel finished: %v, want ErrJobFinished", err)
	}
	if _, err := c.Resume(ctx, job.ID); !errors.Is(err, client.ErrNotResumable) {
		t.Fatalf("resume done job: %v, want ErrNotResumable", err)
	}
}

// TestClientTypedErrors covers the decode side of the problem
// envelope: codes arrive as matchable sentinels with details.
func TestClientTypedErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := newClient(t, jobs.Config{})

	_, err := c.Get(ctx, "job-9999")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get unknown: %v, want ErrNotFound", err)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != client.CodeNotFound {
		t.Fatalf("error payload: %+v", apiErr)
	}

	_, err = c.Submit(ctx, client.SubmitRequest{Algorithm: "warp-drive"},
		bytes.NewReader(datasetBytes(t, testProblem(t))))
	if !errors.Is(err, client.ErrBadParams) {
		t.Fatalf("bad algorithm: %v, want ErrBadParams", err)
	}

	_, err = c.PreviewPNG(ctx, "job-9999", client.PreviewOptions{})
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("preview unknown: %v, want ErrNotFound", err)
	}
	if client.Retryable(err) {
		t.Fatal("not_found must not be retryable")
	}
}

// TestClientStreamingEndToEnd drives a live acquisition through the
// SDK: open from an opening, follow events, feed chunks, close, wait.
func TestClientStreamingEndToEnd(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	c, _ := newClient(t, jobs.Config{})

	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitStreaming(ctx, client.SubmitRequest{
		Algorithm: "serial", Iterations: 3, CheckpointEvery: 1,
	}, &opening)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Streaming {
		t.Fatalf("job not streaming: %+v", job)
	}

	es, err := c.Events(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	seen := map[string]int{}
	evDone := make(chan error, 1)
	go func() {
		for {
			e, err := es.Next()
			if err == io.EOF {
				evDone <- nil
				return
			}
			if err != nil {
				evDone <- err
				return
			}
			if e.Type == "info" && (e.Info == nil || e.Info.ID != job.ID) {
				evDone <- errors.New("info event without the job summary")
				return
			}
			seen[e.Type]++
		}
	}()

	frames := dataio.FramesFromProblem(prob)
	half := len(frames) / 2
	for _, span := range [][2]int{{0, half}, {half, len(frames)}} {
		var chunk bytes.Buffer
		if err := dataio.WriteFrameChunk(&chunk, prob.WindowN, frames[span[0]:span[1]]); err != nil {
			t.Fatal(err)
		}
		ack, err := c.AppendFrames(ctx, job.ID, chunk.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != span[1]-span[0] || ack.Total != span[1] {
			t.Fatalf("ack %+v for span %v", ack, span)
		}
	}
	if _, err := c.CloseStream(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone || !final.EOF || final.Frames != len(frames) {
		t.Fatalf("final: %+v", final)
	}

	select {
	case err := <-evDone:
		if err != nil {
			t.Fatalf("event stream: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream did not end with the job")
	}
	for _, want := range []string{"info", "iteration", "frames", "eof", "state"} {
		if seen[want] == 0 {
			t.Errorf("no %q events (saw %v)", want, seen)
		}
	}

	// Frames after EOF surface the typed conflict.
	var chunk bytes.Buffer
	if err := dataio.WriteFrameChunk(&chunk, prob.WindowN, frames[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendFrames(ctx, job.ID, chunk.Bytes()); !errors.Is(err, client.ErrJobFinished) && !errors.Is(err, client.ErrStreamClosed) {
		t.Fatalf("frames after done: %v, want ErrJobFinished or ErrStreamClosed", err)
	}
}

// TestClientAutoPagination: the Jobs iterator walks every page in
// submit order.
func TestClientAutoPagination(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	c, _ := newClient(t, jobs.Config{Workers: 1})
	data := datasetBytes(t, prob)

	var want []string
	for i := 0; i < 5; i++ {
		j, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1000000}, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, j.ID)
	}
	var got []string
	for j, err := range c.Jobs(ctx, client.ListOptions{Limit: 2}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, j.ID)
	}
	if len(got) != len(want) {
		t.Fatalf("iterator yielded %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterator order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// One page, bounded.
	page, err := c.List(ctx, client.ListOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.NextCursor == "" {
		t.Fatalf("first page: %d jobs, cursor %q", len(page.Jobs), page.NextCursor)
	}
	for _, id := range want {
		c.Cancel(ctx, id)
	}
}

// TestClientRetryQueueFull: a queue-full rejection is retried with the
// server's hint until a slot frees, and the Idempotency-Key keeps the
// retries from enqueueing twice.
func TestClientRetryQueueFull(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	retried := make(chan struct{}, 16)
	c, svc := newClient(t, jobs.Config{Workers: 1, QueueDepth: 1},
		client.WithRetry(10, 100*time.Millisecond),
		client.WithRetryNotify(func(err error, delay time.Duration) {
			if !errors.Is(err, client.ErrQueueFull) {
				t.Errorf("retry notify: %v, want ErrQueueFull", err)
			}
			select {
			case retried <- struct{}{}:
			default:
			}
		}))
	data := datasetBytes(t, prob)

	// Occupy the worker and the queue slot.
	blocker, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1000000}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	waitState := func(id, state string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			j, err := c.Get(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if j.State == state {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("%s never reached %s", id, state)
	}
	waitState(blocker.ID, client.StateRunning)
	queued, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// Free the queue once the overflow submit has been rejected at
	// least once — the SDK must then succeed on a later retry.
	go func() {
		<-retried
		c.Cancel(ctx, queued.ID)
		c.Cancel(ctx, blocker.ID)
	}()
	j, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("submit through backpressure: %v", err)
	}
	if len(retried) == 0 && j.ID == "" {
		t.Fatal("submission went through without observing backpressure")
	}
	// Exactly 3 jobs ever existed: blocker, queued, and ONE from the
	// retried submission.
	if page, _, _ := svc.ListPage(jobs.ListOptions{}); len(page) != 3 {
		t.Fatalf("registry holds %d jobs, want 3 (idempotent retries)", len(page))
	}
	c.Cancel(ctx, j.ID)
}

// TestClientIngestFullRetry: AppendFrames rides out 429 ingest_full
// automatically; a chunk that can never fit fails fast and typed.
func TestClientIngestFullRetry(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	c, _ := newClient(t, jobs.Config{Workers: 1},
		client.WithRetry(50, 100*time.Millisecond))
	data := datasetBytes(t, prob)

	// Occupy the only worker so the streaming job cannot drain.
	blocker, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1000000}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitStreaming(ctx, client.SubmitRequest{
		Algorithm: "serial", Iterations: 2, IngestCapacity: 4,
	}, &opening)
	if err != nil {
		t.Fatal(err)
	}
	frames := dataio.FramesFromProblem(prob)
	chunk := func(lo, hi int) []byte {
		var buf bytes.Buffer
		if err := dataio.WriteFrameChunk(&buf, prob.WindowN, frames[lo:hi]); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if _, err := c.AppendFrames(ctx, job.ID, chunk(0, 3)); err != nil {
		t.Fatal(err)
	}
	// 3 buffered + 3 more > capacity 4: the server rejects with 429
	// until the engine drains. Free the worker shortly after, and the
	// SDK's retries must push the chunk through.
	go func() {
		time.Sleep(50 * time.Millisecond)
		c.Cancel(ctx, blocker.ID)
	}()
	if _, err := c.AppendFrames(ctx, job.ID, chunk(3, 6)); err != nil {
		t.Fatalf("append through backpressure: %v", err)
	}

	// A chunk bigger than the whole ingest can never fit: typed, fast.
	if len(frames) >= 6 {
		_, err := c.AppendFrames(ctx, job.ID, chunk(6, min(len(frames), 12)))
		if len(frames) >= 12 && !errors.Is(err, client.ErrChunkTooLarge) {
			t.Fatalf("oversized chunk: %v, want ErrChunkTooLarge", err)
		}
	}
	if _, err := c.CloseStream(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateDone {
		t.Fatalf("streaming job ended %s: %s", final.State, final.Error)
	}
}

// TestClientRetryPrefersEnvelopeHint: the server rounds Retry-After up
// to whole seconds, so a 150 ms hint arrives as "Retry-After: 1" beside
// retry_after_ms 150 — the SDK must sleep the 150 ms, not the second.
func TestClientRetryPrefersEnvelopeHint(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/problem+json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"type":"urn:ptychopath:problem:ingest_full","title":"Too Many Requests",`+
				`"status":429,"code":"ingest_full","retry_after_ms":150}`)
			return
		}
		io.WriteString(w, `{"accepted":1,"total":1}`)
	}))
	defer ts.Close()
	var delays []time.Duration
	c, err := client.New(ts.URL, client.WithRetry(1, time.Minute),
		client.WithRetryNotify(func(_ error, d time.Duration) { delays = append(delays, d) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendFrames(context.Background(), "job-0001", []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 1 || delays[0] != 150*time.Millisecond {
		t.Fatalf("retry delays %v, want [150ms]", delays)
	}
}

// TestClientIdempotencyKeyExplicit: a caller-provided key dedupes
// across distinct Submit calls (the SDK's per-call random keys never
// collide, so cross-call dedupe needs an explicit key).
func TestClientIdempotencyKeyExplicit(t *testing.T) {
	ctx := context.Background()
	c, svc := newClient(t, jobs.Config{Workers: 1})
	data := datasetBytes(t, testProblem(t))

	req := client.SubmitRequest{Algorithm: "serial", Iterations: 2, IdempotencyKey: "beamline-scan-42"}
	a, err := c.Submit(ctx, req, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, req, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("same key produced %s and %s", a.ID, b.ID)
	}
	if page, _, _ := svc.ListPage(jobs.ListOptions{}); len(page) != 1 {
		t.Fatalf("registry holds %d jobs, want 1", len(page))
	}
}

// TestClientTenancyAndQuotaRetry is the end-to-end multi-tenant path:
// the API key on the client becomes the tenant on the wire, a tenant
// at its concurrent-job cap gets a 429 quota_exceeded whose live
// Retry-After drives the SDK's automatic retry, and the retry lands
// once the tenant's slot frees.
func TestClientTenancyAndQuotaRetry(t *testing.T) {
	ctx := context.Background()
	prob := testProblem(t)
	retried := make(chan struct{}, 16)
	var rejections atomic.Int32
	c, svc := newClient(t, jobs.Config{
		Workers: 1, QueueDepth: 8,
		Sched: sched.Config{
			Policy:  "wfq",
			Tenants: map[string]sched.TenantConfig{"alpha": {Weight: 2, MaxActive: 1}},
		},
	},
		client.WithAPIKey("alpha"),
		client.WithRetry(20, 100*time.Millisecond),
		client.WithRetryNotify(func(err error, delay time.Duration) {
			if !errors.Is(err, client.ErrQuotaExceeded) {
				t.Errorf("retry notify: %v, want ErrQuotaExceeded", err)
			}
			var e *client.Error
			if !errors.As(err, &e) || e.RetryAfter <= 0 {
				t.Errorf("quota rejection %v carries no live Retry-After", err)
			}
			rejections.Add(1)
			select {
			case retried <- struct{}{}:
			default:
			}
		}))
	data := datasetBytes(t, prob)

	blocker, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 1000000}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The API key rode the submission onto the wire as the tenant.
	if blocker.Tenant != "alpha" || blocker.Priority != "bulk" {
		t.Fatalf("submitted job tenant=%q priority=%q, want alpha/bulk", blocker.Tenant, blocker.Priority)
	}

	// Tenant alpha is at max_active=1: the next submission 429s with
	// quota_exceeded until the blocker is cancelled.
	go func() {
		<-retried
		c.Cancel(ctx, blocker.ID)
	}()
	j, err := c.Submit(ctx, client.SubmitRequest{
		Algorithm: "serial", Iterations: 2, Priority: "interactive",
	}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("submit through quota backpressure: %v", err)
	}
	if rejections.Load() == 0 {
		t.Error("submission went through without observing quota backpressure")
	}
	if j.Priority != "interactive" {
		t.Errorf("requested priority lost on the wire: %q", j.Priority)
	}

	// The fairness rollup is on /v1/status for operators and probes.
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SchedPolicy != "wfq" {
		t.Errorf("status sched_policy = %q, want wfq", st.SchedPolicy)
	}
	var alpha *client.TenantStatus
	for i := range st.Tenants {
		if st.Tenants[i].Name == "alpha" {
			alpha = &st.Tenants[i]
		}
	}
	if alpha == nil {
		t.Fatalf("status tenants %+v lack alpha", st.Tenants)
	}
	if alpha.Weight != 2 || alpha.MaxActive != 1 || alpha.QuotaRejections < 1 {
		t.Errorf("alpha rollup %+v, want weight 2, max_active 1, >=1 quota rejection", alpha)
	}
	_ = svc
	c.Cancel(ctx, j.ID)
}
