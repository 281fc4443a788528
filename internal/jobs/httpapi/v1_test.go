package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/stream"
)

// TestProblemForTable pins THE status/code table of the /v1 API: every
// error the jobs service can surface maps to a documented problem
// envelope. A new service error that reaches HTTP unmapped shows up
// here as the internal/500 row it would leak as.
func TestProblemForTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
		wantRetry  int64 // retry_after_ms; 0 = must be absent
	}{
		{"invalid params", fmt.Errorf("wrap: %w", jobs.ErrInvalidParams), http.StatusBadRequest, client.CodeBadParams, 0},
		{"no grid", jobs.ErrNoGrid, http.StatusBadRequest, client.CodeBadParams, 0},
		{"bad cursor", fmt.Errorf("wrap: %w", jobs.ErrBadCursor), http.StatusBadRequest, client.CodeBadParams, 0},
		{"not found", fmt.Errorf("%w: job-9", jobs.ErrNotFound), http.StatusNotFound, client.CodeNotFound, 0},
		{"queue full", fmt.Errorf("%w (depth 4)", jobs.ErrQueueFull), http.StatusTooManyRequests, client.CodeQueueFull, 5000},
		{"queue full live hint", &jobs.Backpressure{Err: fmt.Errorf("%w (depth 4)", jobs.ErrQueueFull), RetryAfter: 2300 * time.Millisecond}, http.StatusTooManyRequests, client.CodeQueueFull, 2300},
		{"ingest full", fmt.Errorf("wrap: %w", stream.ErrIngestFull), http.StatusTooManyRequests, client.CodeIngestFull, 1000},
		{"ingest full live hint", &jobs.Backpressure{Err: fmt.Errorf("wrap: %w", stream.ErrIngestFull), RetryAfter: 450 * time.Millisecond}, http.StatusTooManyRequests, client.CodeIngestFull, 450},
		{"quota exceeded", fmt.Errorf("wrap: %w", jobs.ErrQuotaExceeded), http.StatusTooManyRequests, client.CodeQuotaExceeded, 1000},
		{"quota exceeded live hint", &jobs.Backpressure{Err: fmt.Errorf("wrap: %w", jobs.ErrQuotaExceeded), RetryAfter: 7 * time.Second}, http.StatusTooManyRequests, client.CodeQuotaExceeded, 7000},
		{"chunk too large", fmt.Errorf("wrap: %w", stream.ErrChunkTooLarge), http.StatusBadRequest, client.CodeChunkTooLarge, 0},
		{"finished", fmt.Errorf("%w: job-1 is done", jobs.ErrFinished), http.StatusConflict, client.CodeJobFinished, 0},
		{"not resumable", fmt.Errorf("wrap: %w", jobs.ErrNotResumable), http.StatusConflict, client.CodeNotResumable, 0},
		{"not streaming", fmt.Errorf("wrap: %w", jobs.ErrNotStreaming), http.StatusConflict, client.CodeNotStreaming, 0},
		{"stream closed", fmt.Errorf("wrap: %w", stream.ErrStreamClosed), http.StatusConflict, client.CodeStreamClosed, 0},
		{"service closed", jobs.ErrClosed, http.StatusServiceUnavailable, client.CodeShuttingDown, 0},
		{"body too large", &http.MaxBytesError{Limit: 512}, http.StatusRequestEntityTooLarge, client.CodePayloadTooLarge, 0},
		{"body too large wrapped", fmt.Errorf("decoding: %w", &http.MaxBytesError{Limit: 512}), http.StatusRequestEntityTooLarge, client.CodePayloadTooLarge, 0},
		{"parse error", badParams("parameter iters: junk"), http.StatusBadRequest, client.CodeBadParams, 0},
		{"unmapped", errors.New("disk exploded"), http.StatusInternalServerError, client.CodeInternal, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := problemFor(tc.err)
			if p.Status != tc.wantStatus || p.Code != tc.wantCode {
				t.Fatalf("problemFor(%v) = %d/%s, want %d/%s", tc.err, p.Status, p.Code, tc.wantStatus, tc.wantCode)
			}
			if p.RetryAfterMS != tc.wantRetry {
				t.Fatalf("retry_after_ms = %d, want %d", p.RetryAfterMS, tc.wantRetry)
			}
			if p.Type != client.ProblemType(tc.wantCode) {
				t.Fatalf("type = %q, want %q", p.Type, client.ProblemType(tc.wantCode))
			}
			if p.Title == "" {
				t.Fatalf("code %s has no title", p.Code)
			}
			if p.Detail == "" {
				t.Fatal("detail must carry the message")
			}
		})
	}
}

// multipartSubmit builds a /v1 multipart submission body.
func multipartSubmit(t *testing.T, params string, dataset []byte) (io.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if params != "" {
		pw, err := mw.CreateFormField("params")
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(pw, params)
	}
	if dataset != nil {
		dw, err := mw.CreateFormFile("dataset", "dataset")
		if err != nil {
			t.Fatal(err)
		}
		dw.Write(dataset)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// postSubmit POSTs a multipart submission (a params JSON part, a
// dataset part) to a /v1 submit URL and decodes a 2xx body into v —
// the one way these tests submit. The response comes back with its
// body consumed, for the status and headers.
func postSubmit(t *testing.T, url, params string, dataset []byte, v any) *http.Response {
	t.Helper()
	body, ct := multipartSubmit(t, params, dataset)
	resp, err := http.Post(url, ct, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s (%s): %v", url, raw, err)
		}
	}
	return resp
}

// decodeProblem asserts resp is a problem envelope and returns it.
func decodeProblem(t *testing.T, resp *http.Response) client.Problem {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
		t.Fatalf("error response content-type %q, want application/problem+json", ct)
	}
	var p client.Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decoding problem envelope: %v", err)
	}
	if p.Status != resp.StatusCode {
		t.Fatalf("envelope status %d != HTTP status %d", p.Status, resp.StatusCode)
	}
	return p
}

// TestV1EnvelopeOverTheWire spot-checks that the problemFor table is
// what actually leaves the socket, for the envelope-bearing paths a
// client hits first.
func TestV1EnvelopeOverTheWire(t *testing.T) {
	prob := testProblem(t)
	ts, _ := newTestServer(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}

	t.Run("not_found", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/job-9999")
		if err != nil {
			t.Fatal(err)
		}
		p := decodeProblem(t, resp)
		if resp.StatusCode != http.StatusNotFound || p.Code != client.CodeNotFound {
			t.Fatalf("got %d/%s", resp.StatusCode, p.Code)
		}
	})

	t.Run("bad_params non-multipart submit", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(upload.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		p := decodeProblem(t, resp)
		if resp.StatusCode != http.StatusBadRequest || p.Code != client.CodeBadParams {
			t.Fatalf("got %d/%s", resp.StatusCode, p.Code)
		}
	})

	t.Run("bad_params unknown params field", func(t *testing.T) {
		body, ct := multipartSubmit(t, `{"algorithm":"serial","iterationz":5}`, upload.Bytes())
		resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		p := decodeProblem(t, resp)
		if resp.StatusCode != http.StatusBadRequest || p.Code != client.CodeBadParams {
			t.Fatalf("got %d/%s", resp.StatusCode, p.Code)
		}
		if !strings.Contains(p.Detail, "SubmitRequest") {
			t.Fatalf("detail %q does not name the schema", p.Detail)
		}
	})

	t.Run("bad_params missing dataset part", func(t *testing.T) {
		body, ct := multipartSubmit(t, `{"algorithm":"serial"}`, nil)
		resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		if p := decodeProblem(t, resp); p.Code != client.CodeBadParams {
			t.Fatalf("got %d/%s", resp.StatusCode, p.Code)
		}
	})

	// Parameters the engine would reject before its first iteration are
	// refused at the door (they used to be accepted with 202 and fail at
	// iteration 0), and before the runtime predictor simulates the
	// mesh — an absurd one must not stall the submit path.
	for name, params := range map[string]string{
		"negative rounds":        `{"algorithm":"gd","rounds_per_iteration":-1}`,
		"mesh larger than image": `{"algorithm":"gd","mesh_rows":4000,"mesh_cols":4000}`,
		"hve tile below halo":    `{"algorithm":"hve","mesh_rows":6,"mesh_cols":6}`,
	} {
		t.Run("bad_params "+name, func(t *testing.T) {
			body, ct := multipartSubmit(t, params, upload.Bytes())
			start := time.Now()
			resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
			if err != nil {
				t.Fatal(err)
			}
			p := decodeProblem(t, resp)
			if resp.StatusCode != http.StatusBadRequest || p.Code != client.CodeBadParams {
				t.Fatalf("got %d/%s: %s", resp.StatusCode, p.Code, p.Detail)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("rejection took %v", d)
			}
		})
	}

	t.Run("not_streaming frames to batch job", func(t *testing.T) {
		body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":1}`, upload.Bytes())
		resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		var info jobs.Info
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("multipart submit: %d", resp.StatusCode)
		}
		var chunk bytes.Buffer
		if err := dataio.WriteFrameChunk(&chunk, prob.WindowN, dataio.FramesFromProblem(prob)[:1]); err != nil {
			t.Fatal(err)
		}
		fresp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/frames", "application/octet-stream", &chunk)
		if err != nil {
			t.Fatal(err)
		}
		p := decodeProblem(t, fresp)
		if fresp.StatusCode != http.StatusConflict || p.Code != client.CodeNotStreaming {
			t.Fatalf("got %d/%s", fresp.StatusCode, p.Code)
		}
	})

	t.Run("queue_full retry hint", func(t *testing.T) {
		svc, err := jobs.NewService(jobs.Config{Workers: 1, QueueDepth: 1, SpoolDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		full := newHTTPTestServer(t, svc)
		submit := func() *http.Response {
			body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":1000000}`, upload.Bytes())
			resp, err := http.Post(full.URL+"/v1/jobs", ct, body)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		var first jobs.Info
		resp := submit()
		json.NewDecoder(resp.Body).Decode(&first)
		resp.Body.Close()
		pollInfo(t, full.URL+"/v1/jobs/"+first.ID, "worker busy", func(i jobs.Info) bool { return i.State == "running" })
		submit().Body.Close() // occupies the queue slot
		resp = submit()
		p := decodeProblem(t, resp)
		if resp.StatusCode != http.StatusTooManyRequests || p.Code != client.CodeQueueFull {
			t.Fatalf("got %d/%s", resp.StatusCode, p.Code)
		}
		// The hint is live-derived from queue depth × predicted runtimes
		// (a million-iteration job is ahead, so it is large); the header
		// must agree with the envelope to the second, rounded up.
		if p.RetryAfterMS <= 0 {
			t.Fatalf("retry_after_ms = %d, want a live positive hint", p.RetryAfterMS)
		}
		wantHeader := strconv.FormatInt((p.RetryAfterMS+999)/1000, 10)
		if got := resp.Header.Get("Retry-After"); got != wantHeader {
			t.Fatalf("Retry-After header %q, want %q (retry_after_ms %d)", got, wantHeader, p.RetryAfterMS)
		}
	})
}

// TestV1MaxUploadPayloadTooLarge: a body beyond WithMaxUpload answers
// 413 with the payload_too_large code instead of resetting the
// connection, for batch submissions and stream openings alike.
func TestV1MaxUploadPayloadTooLarge(t *testing.T) {
	svc, err := jobs.NewService(jobs.Config{Workers: 1, QueueDepth: 4, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc, WithMaxUpload(1024)).Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })

	// A VALID dataset bigger than the cap: the decoder must trip the
	// byte bound mid-read and surface it as 413, not as a decode 400.
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	big := upload.Bytes()
	if len(big) <= 1024 {
		t.Fatalf("test dataset only %d bytes, not over the 1024 cap", len(big))
	}
	body, ct := multipartSubmit(t, `{"algorithm":"serial"}`, big)
	resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	p := decodeProblem(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || p.Code != client.CodePayloadTooLarge {
		t.Fatalf("v1 oversized submit: %d/%s, want 413/%s", resp.StatusCode, p.Code, client.CodePayloadTooLarge)
	}

	// The same bound guards a stream opening (the probe alone is over
	// the cap).
	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(testProblem(t))); err != nil {
		t.Fatal(err)
	}
	if opening.Len() <= 1024 {
		t.Fatalf("test opening only %d bytes, not over the 1024 cap", opening.Len())
	}
	body, ct = multipartSubmit(t, `{"algorithm":"serial"}`, opening.Bytes())
	resp, err = http.Post(ts.URL+"/v1/jobs/stream", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	p = decodeProblem(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || p.Code != client.CodePayloadTooLarge {
		t.Fatalf("oversized stream opening: %d/%s, want 413/%s", resp.StatusCode, p.Code, client.CodePayloadTooLarge)
	}
}

// TestV1Pagination drives cursor pagination over the wire, including
// the edge cases: empty page, cursor at the end, invalid cursor.
func TestV1Pagination(t *testing.T) {
	prob := testProblem(t)
	svc, err := jobs.NewService(jobs.Config{Workers: 1, QueueDepth: 16, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, svc)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}

	type page struct {
		Jobs       []jobs.Info `json:"jobs"`
		NextCursor string      `json:"next_cursor"`
	}
	getPage := func(query string) (page, *http.Response) {
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		var pg page
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pg); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		return pg, resp
	}

	// Empty registry: an empty jobs ARRAY (not null), no cursor.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"jobs":[]`) {
		t.Fatalf("empty listing = %s, want a jobs:[] array", raw)
	}

	var ids []string
	for i := 0; i < 5; i++ {
		body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":1000000}`, upload.Bytes())
		r, err := http.Post(ts.URL+"/v1/jobs", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		var info jobs.Info
		json.NewDecoder(r.Body).Decode(&info)
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, r.StatusCode)
		}
		ids = append(ids, info.ID)
	}

	// Page with limit 2: 2+2+1 in submit order.
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("cursor chain does not terminate")
		}
		q := "?limit=2"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		pg, resp := getPage(q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page: status %d", resp.StatusCode)
		}
		for _, j := range pg.Jobs {
			got = append(got, j.ID)
		}
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("paged %v, want %v (deterministic submit order)", got, ids)
	}

	// Cursor at the end: empty page, 200.
	pg, resp := getPage("?limit=2&cursor=" + ids[len(ids)-1])
	if resp.StatusCode != http.StatusOK || len(pg.Jobs) != 0 || pg.NextCursor != "" {
		t.Fatalf("cursor at end: status %d, %d jobs, next %q", resp.StatusCode, len(pg.Jobs), pg.NextCursor)
	}

	// Invalid cursor → bad_params envelope.
	_, resp = getPage("?cursor=job-9999")
	if p := decodeProblem(t, resp); resp.StatusCode != http.StatusBadRequest || p.Code != client.CodeBadParams {
		t.Fatalf("invalid cursor: %d/%s", resp.StatusCode, p.Code)
	}
	// Invalid limit and status values too.
	for _, q := range []string{"?limit=0", "?limit=abc", "?limit=1001", "?status=bogus"} {
		_, resp = getPage(q)
		if p := decodeProblem(t, resp); resp.StatusCode != http.StatusBadRequest || p.Code != client.CodeBadParams {
			t.Fatalf("%s: %d/%s, want 400/bad_params", q, resp.StatusCode, p.Code)
		}
	}

	// Status filter matches only the running job (worker pool is 1 and
	// the first job runs forever until cancelled).
	pollInfo(t, ts.URL+"/v1/jobs/"+ids[0], "first job running", func(i jobs.Info) bool { return i.State == "running" })
	pg, resp = getPage("?status=running")
	if resp.StatusCode != http.StatusOK || len(pg.Jobs) != 1 || pg.Jobs[0].ID != ids[0] {
		t.Fatalf("status=running page: %+v", pg)
	}
	for _, id := range ids {
		http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil)
	}
}

// TestV1IdempotentSubmitRace: concurrent submissions sharing an
// Idempotency-Key enqueue exactly one job, over the wire.
func TestV1IdempotentSubmitRace(t *testing.T) {
	prob := testProblem(t)
	svc, err := jobs.NewService(jobs.Config{Workers: 1, QueueDepth: 16, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPTestServer(t, svc)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}

	const racers = 8
	var wg sync.WaitGroup
	idsCh := make(chan string, racers)
	replayed := make(chan bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":2}`, upload.Bytes())
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", body)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", ct)
			req.Header.Set("Idempotency-Key", "race-key")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("racer: status %d", resp.StatusCode)
				return
			}
			var info jobs.Info
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				t.Error(err)
				return
			}
			idsCh <- info.ID
			replayed <- resp.Header.Get("Idempotency-Replayed") == "true"
		}()
	}
	wg.Wait()
	close(idsCh)
	close(replayed)

	var first string
	for id := range idsCh {
		if first == "" {
			first = id
		}
		if id != first {
			t.Fatalf("racers got different jobs: %s vs %s", id, first)
		}
	}
	fresh := 0
	for r := range replayed {
		if !r {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d responses claim a fresh enqueue, want exactly 1", fresh)
	}
	if n := len(allJobs(t, svc)); n != 1 {
		t.Fatalf("registry holds %d jobs, want 1", n)
	}
}

// TestUnversionedRoutesGone: there is one HTTP generation. Every route
// that used to be mounted without the /v1 prefix answers 404 — also for
// a job that exists — and only the infrastructure endpoints live outside
// /v1.
func TestUnversionedRoutesGone(t *testing.T) {
	ts, _ := newTestServer(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	if resp := postSubmit(t, ts.URL+"/v1/jobs", `{"algorithm":"serial","iterations":1}`, upload.Bytes(), &info); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := info.ID
	for _, route := range []struct{ method, path string }{
		{"POST", "/jobs"},
		{"POST", "/jobs?alg=serial&iters=1"},
		{"POST", "/jobs/stream"},
		{"GET", "/jobs"},
		{"GET", "/jobs/" + id},
		{"POST", "/jobs/" + id + "/frames"},
		{"POST", "/jobs/" + id + "/eof"},
		{"GET", "/jobs/" + id + "/events"},
		{"POST", "/jobs/" + id + "/cancel"},
		{"POST", "/jobs/" + id + "/resume"},
		{"GET", "/jobs/" + id + "/preview.png"},
		{"GET", "/jobs/" + id + "/object"},
		{"GET", "/grid"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, bytes.NewReader(upload.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", route.method, route.path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s %s still answers with a Deprecation header", route.method, route.path)
		}
	}
	for _, path := range []string{"/metrics", "/healthz", "/v1/jobs", "/v1/jobs/" + id, "/v1/grid"} {
		if st := getJSON(t, ts.URL+path, nil); st != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, st)
		}
	}
}
