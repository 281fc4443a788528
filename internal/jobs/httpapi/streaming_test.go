package httpapi

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
)

// newHTTPTestServer wraps an externally configured service (tests that
// need specific queue or ingest bounds).
func newHTTPTestServer(t *testing.T, svc *jobs.Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	return ts
}

// chunkBody encodes frames[lo:hi] as one PTYCHSv1 'F' chunk.
func chunkBody(t *testing.T, windowN int, frames []dataio.Frame) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.WriteFrameChunk(&buf, windowN, frames); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func pollInfo(t *testing.T, url string, what string, cond func(jobs.Info) bool) jobs.Info {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var cur jobs.Info
		if st := getJSON(t, url, &cur); st != http.StatusOK {
			t.Fatalf("poll %s: status %d", url, st)
		}
		if cond(cur) {
			return cur
		}
		if cur.State == "failed" {
			t.Fatalf("job failed while waiting for %s: %s", what, cur.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
	return jobs.Info{}
}

// TestQueueFullSurfacesAs429 is the backpressure satellite end-to-end:
// overflowing the bounded job queue answers 429 Too Many Requests with
// a Retry-After hint, and the same submission succeeds after a slot
// frees up.
func TestQueueFullSurfacesAs429(t *testing.T) {
	prob := testProblem(t)
	svc, err := jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 1, SpoolDir: t.TempDir(), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, svc)

	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	submit := func(iters int, v any) *http.Response {
		return postSubmit(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"algorithm":"serial","iterations":%d}`, iters), upload.Bytes(), v)
	}
	// First job occupies the worker, second fills the depth-1 queue.
	var running, queued jobs.Info
	if resp := submit(1000000, &running); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	pollInfo(t, ts.URL+"/v1/jobs/"+running.ID, "worker busy", func(i jobs.Info) bool { return i.State == "running" })
	if resp := submit(5, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	// Overflow: 429 with a Retry-After hint.
	resp := submit(1000000, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After hint")
	}

	// Free the queue slot and retry: accepted.
	if st := postJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/cancel", nil, nil); st != http.StatusOK {
		t.Fatalf("cancel queued: %d", st)
	}
	var retried jobs.Info
	if resp := submit(5, &retried); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after Retry-After: status %d, want 202", resp.StatusCode)
	}
	for _, id := range []string{running.ID, retried.ID} {
		postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", nil, nil)
	}
}

// TestStreamingEndToEnd drives the live-acquisition scenario over
// HTTP: open a job from a PTYCHSv1 opening, follow it over SSE, feed
// three chunks while it reconstructs, close the stream, and collect
// the finished object.
func TestStreamingEndToEnd(t *testing.T) {
	prob := testProblem(t)
	ts, _ := newTestServer(t)

	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		t.Fatal(err)
	}
	frames := dataio.FramesFromProblem(prob)

	var info jobs.Info
	if resp := postSubmit(t, ts.URL+"/v1/jobs/stream",
		`{"algorithm":"serial","iterations":5,"step_size":0.01,"checkpoint_every":1}`, opening.Bytes(), &info); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open stream: status %d", resp.StatusCode)
	}
	if !info.Streaming {
		t.Fatalf("job not marked streaming: %+v", info)
	}
	jobURL := ts.URL + "/v1/jobs/" + info.ID

	// Follow the SSE feed concurrently, collecting event types.
	var evMu sync.Mutex
	events := map[string]int{}
	sseDone := make(chan error, 1)
	subscribed := make(chan struct{}) // closed at the feed's first event
	go func() {
		resp, err := http.Get(jobURL + "/events")
		if err != nil {
			sseDone <- err
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			sseDone <- fmt.Errorf("events content-type %q", ct)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				evMu.Lock()
				if len(events) == 0 {
					close(subscribed)
				}
				events[name]++
				evMu.Unlock()
			}
		}
		sseDone <- sc.Err()
	}()
	// The frames events are only seen by a subscriber connected before
	// the chunks are posted.
	select {
	case <-subscribed:
	case err := <-sseDone:
		t.Fatalf("SSE feed ended before its first event: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("SSE feed sent no event")
	}

	// Feed three chunks, each folded while the job iterates.
	n := len(frames)
	bounds := []int{0, n / 3, 2 * n / 3, n}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(jobURL+"/frames", "application/octet-stream",
			chunkBody(t, prob.WindowN, frames[bounds[i]:bounds[i+1]]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, resp.StatusCode)
		}
		want := i + 1
		pollInfo(t, jobURL, "fold", func(i jobs.Info) bool { return i.Folds >= want })
	}
	mid := pollInfo(t, jobURL, "all frames ingested", func(i jobs.Info) bool { return i.Frames == n })
	if mid.EOF {
		t.Fatal("stream reports EOF before eof was posted")
	}

	// Close the stream; the job folds the remainder, runs its tail and
	// completes.
	if st := postJSON(t, jobURL+"/eof", nil, nil); st != http.StatusOK {
		t.Fatalf("eof: status %d", st)
	}
	final := pollInfo(t, jobURL, "job done", func(i jobs.Info) bool { return i.State == "done" })
	if final.ActiveFrames != n || !final.EOF || final.Folds < 3 {
		t.Fatalf("final info: %+v", final)
	}
	if final.Iter <= 5 {
		t.Errorf("finished after %d iterations; tail alone is 5, nothing ran mid-stream", final.Iter)
	}

	// The finished object downloads and has the dataset's geometry.
	resp, err := http.Get(jobURL + "/object")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dataio.ReadObject(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != prob.Slices || !obj[0].Bounds.Eq(prob.ImageBounds()) {
		t.Fatalf("object: %d slices over %v", len(obj), obj[0].Bounds)
	}

	// The SSE feed ended with the job and saw the whole lifecycle.
	select {
	case err := <-sseDone:
		if err != nil {
			t.Fatalf("SSE: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE feed did not close with the job")
	}
	evMu.Lock()
	defer evMu.Unlock()
	for _, want := range []string{"info", "iteration", "frames", "fold", "snapshot", "eof", "state"} {
		if events[want] == 0 {
			t.Errorf("SSE feed missing %q events (saw %v)", want, events)
		}
	}

	// Frame-level endpoints reject non-streaming and unknown jobs.
	var batchInfo jobs.Info
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	if resp := postSubmit(t, ts.URL+"/v1/jobs", `{"algorithm":"serial","iterations":3}`, upload.Bytes(), &batchInfo); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/jobs/"+batchInfo.ID+"/frames", "application/octet-stream",
		chunkBody(t, prob.WindowN, frames[:1]))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("frames to batch job: status %d, want 409", resp2.StatusCode)
	}
	if st := postJSON(t, ts.URL+"/v1/jobs/job-9999/eof", nil, nil); st != http.StatusNotFound {
		t.Errorf("eof to unknown job: status %d, want 404", st)
	}
}

// TestIngestFullSurfacesAs429: a queued streaming job with a tiny
// ingest bound pushes back on the feeder with 429 + Retry-After, and
// the same chunk succeeds once the engine drains the buffer.
func TestIngestFullSurfacesAs429(t *testing.T) {
	prob := testProblem(t)
	svc, err := jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 4, SpoolDir: t.TempDir(), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, svc)

	// Occupy the only worker so the streaming job cannot drain.
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	var blocker jobs.Info
	if resp := postSubmit(t, ts.URL+"/v1/jobs", `{"algorithm":"serial","iterations":1000000}`, upload.Bytes(), &blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	pollInfo(t, ts.URL+"/v1/jobs/"+blocker.ID, "blocker running", func(i jobs.Info) bool { return i.State == "running" })

	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	if resp := postSubmit(t, ts.URL+"/v1/jobs/stream", `{"algorithm":"serial","iterations":3,"ingest_capacity":4}`, opening.Bytes(), &info); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("open stream: %d", resp.StatusCode)
	}
	jobURL := ts.URL + "/v1/jobs/" + info.ID
	frames := dataio.FramesFromProblem(prob)

	post := func(lo, hi int) *http.Response {
		resp, err := http.Post(jobURL+"/frames", "application/octet-stream",
			chunkBody(t, prob.WindowN, frames[lo:hi]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(0, 3); resp.StatusCode != http.StatusOK {
		t.Fatalf("first chunk: %d", resp.StatusCode)
	}
	resp := post(3, 6) // 3 buffered + 3 > capacity 4
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow chunk: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	// A chunk that can NEVER fit (6 > capacity 4) is a client error,
	// not a retryable 429 — a compliant feeder must split it.
	if resp := post(6, 12); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunk over capacity: status %d, want 400", resp.StatusCode)
	}

	// Free the worker; the streaming job folds the backlog and the
	// retried chunk goes through.
	if st := postJSON(t, ts.URL+"/v1/jobs/"+blocker.ID+"/cancel", nil, nil); st != http.StatusOK {
		t.Fatalf("cancel blocker: %d", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp := post(3, 6); resp.StatusCode == http.StatusOK {
			break
		} else if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("retry: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("retried chunk never accepted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := postJSON(t, jobURL+"/eof", nil, nil); st != http.StatusOK {
		t.Fatalf("eof: %d", st)
	}
	pollInfo(t, jobURL, "streaming job done", func(i jobs.Info) bool { return i.State == "done" })
}
