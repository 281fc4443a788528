// Package client is the typed Go SDK for the ptychoserve /v1 HTTP API:
// the supported way for Go programs to submit reconstructions, feed
// live acquisitions, follow progress and collect results without
// hand-rolling HTTP.
//
//	c, _ := client.New("http://127.0.0.1:8617")
//	job, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "gd", Iterations: 100}, dataset)
//	...
//	done, err := c.Wait(ctx, job.ID)
//
// Every method takes a context and returns typed errors: non-2xx
// responses decode into *Error carrying the machine-readable problem
// code (match with errors.Is against ErrNotFound, ErrQueueFull, …).
// Backpressure is handled for you — 429 responses are retried
// honoring the server's Retry-After hint with a capped backoff, and
// submissions carry an Idempotency-Key so those retries can never
// double-enqueue a job.
//
// The wire contract (SubmitRequest, Job, Problem, Event) is defined in
// this package and imported by the server, so client and service
// cannot drift apart.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one ptychoserve. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	notify  func(err error, delay time.Duration)
	apiKey  string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (transport
// tuning, proxies, test doubles). The default has no global timeout —
// per-call contexts bound every request, and SSE feeds are long-lived.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the retry budget for backpressure (429) responses:
// at most max retries per call, each delay capped at cap. max 0
// disables automatic retries. Default: 8 retries capped at 30s.
func WithRetry(max int, cap time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = max, cap }
}

// WithRetryNotify installs a hook called before each backpressure
// retry with the rejection and the delay about to be slept — for
// progress logs ("ingest full, backing off 1s").
func WithRetryNotify(fn func(err error, delay time.Duration)) Option {
	return func(c *Client) { c.notify = fn }
}

// WithAPIKey sends key as the X-API-Key header on every request. The
// key names the caller's tenant: submissions are accounted (and, under
// a weighted-fair server, scheduled) against that tenant's share and
// quotas. Without a key the server books everything under the
// "anonymous" tenant.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// New returns a client for the server at baseURL (scheme://host[:port],
// with no trailing /v1 — the client versions its own paths).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q: want http:// or https://", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		retries: 8,
		backoff: 30 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// newIdempotencyKey mints a random key for one submission attempt
// chain: the retries within a single Submit call share it, distinct
// calls never do.
func newIdempotencyKey() string {
	var b [16]byte
	rand.Read(b[:]) // never fails (crypto/rand panics on a broken source)
	return "sdk-" + hex.EncodeToString(b[:])
}

// do runs one /v1 request with automatic backpressure retries.
// body (optional) rebuilds the request body per attempt; want is the
// accepted status; out (optional) receives the decoded JSON response.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, header http.Header, body func() (io.Reader, string), want int, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		var ct string
		if body != nil {
			rd, ct = body()
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if resp.StatusCode == want {
			defer resp.Body.Close()
			if out == nil {
				io.Copy(io.Discard, resp.Body)
				return nil
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
			}
			return nil
		}
		apiErr := decodeError(resp)
		if !Retryable(apiErr) || attempt >= c.retries {
			return apiErr
		}
		delay := retryDelay(apiErr, attempt, c.backoff)
		if c.notify != nil {
			c.notify(apiErr, delay)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return fmt.Errorf("client: giving up on %s %s: %w (last rejection: %v)", method, path, ctx.Err(), apiErr)
		}
	}
}

// retryDelay picks the next backoff: the server's Retry-After when it
// sent one, else 250ms doubling per attempt — both capped.
func retryDelay(err error, attempt int, cap time.Duration) time.Duration {
	var e *Error
	d := 250 * time.Millisecond << min(attempt, 20)
	if errors.As(err, &e) && e.RetryAfter > 0 {
		d = e.RetryAfter
	}
	return min(d, cap)
}

// decodeError turns a non-2xx response into *Error, consuming the
// body. Responses without a parseable problem envelope (a proxy's
// error page, say) still produce a coded error from the status. The
// envelope's retry_after_ms is preferred over the Retry-After header,
// which the server rounds up to whole seconds.
func decodeError(resp *http.Response) *Error {
	defer resp.Body.Close()
	e := &Error{Status: resp.StatusCode, Code: CodeInternal}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		e.RetryAfter = time.Duration(ra) * time.Second
	}
	var p Problem
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &p) == nil && p.Code != "" {
		e.Code = p.Code
		e.Detail = p.Detail
		if p.RetryAfterMS > 0 {
			e.RetryAfter = time.Duration(p.RetryAfterMS) * time.Millisecond
		}
		return e
	}
	e.Detail = strings.TrimSpace(string(raw))
	return e
}

// multipartBody builds the multipart submit body — a "params" JSON
// part and a "dataset" binary part — as framing prefix + a fresh reader
// of the dataset per attempt + closing suffix.
func multipartBody(req SubmitRequest, dataset func() io.Reader) func() (io.Reader, string) {
	var pre, suf bytes.Buffer
	sw := &switchWriter{w: &pre}
	mw := multipart.NewWriter(sw)
	pw, err := mw.CreateFormField("params")
	if err == nil {
		err = json.NewEncoder(pw).Encode(req)
	}
	if err == nil {
		// Emit the dataset part's headers into the prefix; its content
		// is spliced in between prefix and suffix at request time.
		_, err = mw.CreateFormFile("dataset", "dataset")
	}
	if err == nil {
		sw.w = &suf
		err = mw.Close()
	}
	if err != nil {
		// Buffer writes cannot fail; unreachable, but surface it as a
		// request the server will reject loudly.
		pre.Reset()
		suf.Reset()
	}
	return func() (io.Reader, string) {
		return io.MultiReader(
			bytes.NewReader(pre.Bytes()),
			dataset(),
			bytes.NewReader(suf.Bytes()),
		), mw.FormDataContentType()
	}
}

// switchWriter lets one multipart.Writer emit into the prefix buffer
// first and the suffix buffer after the dataset part's headers.
type switchWriter struct{ w io.Writer }

func (s *switchWriter) Write(p []byte) (int, error) { return s.w.Write(p) }

// datasetSource returns a reader of the dataset per attempt: a fresh
// io.SectionReader — no Seek between attempts, whose bodies a
// RoundTripper may still read after Do returns — or the bytes read once.
func datasetSource(r io.Reader) (func() io.Reader, error) {
	ra, at := r.(io.ReaderAt)
	if sk, ok := r.(io.Seeker); at && ok {
		off, err := sk.Seek(0, io.SeekCurrent)
		end, err2 := sk.Seek(0, io.SeekEnd)
		if _, err3 := sk.Seek(off, io.SeekStart); err != nil || err2 != nil || err3 != nil {
			return nil, errors.Join(err, err2, err3)
		}
		return func() io.Reader { return io.NewSectionReader(ra, off, end-off) }, nil
	}
	data, err := readDataset(r)
	return func() io.Reader { return bytes.NewReader(data) }, err
}

// readDataset reads r to its end. When r tells how much is left — the
// in-memory readers by Len, a file by seeking — everything lands in one
// buffer of that size; io.ReadAll's doubling allocates about six times
// the dataset on the way to holding it once.
func readDataset(r io.Reader) ([]byte, error) {
	size := -1
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case io.Seeker:
		if cur, err := v.Seek(0, io.SeekCurrent); err == nil {
			if end, err := v.Seek(0, io.SeekEnd); err == nil {
				size = int(end - cur)
			}
			if _, err := v.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// ReadFrom stops growing while bytes.MinRead of room is left, so the
	// read that finds EOF still fits.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// submit shares the batch/streaming submission path.
func (c *Client) submit(ctx context.Context, path string, req SubmitRequest, dataset io.Reader) (*Job, error) {
	data, err := datasetSource(dataset)
	if err != nil {
		return nil, fmt.Errorf("client: reading dataset: %w", err)
	}
	key := req.IdempotencyKey
	if key == "" {
		key = newIdempotencyKey()
	}
	h := http.Header{"Idempotency-Key": []string{key}}
	if req.RequestID != "" {
		h.Set("X-Request-ID", req.RequestID)
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, path, nil, h, multipartBody(req, data), http.StatusAccepted, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Submit enqueues a batch reconstruction of the dataset read from
// dataset: a closed PTYCHS stream, as datagen writes it (see
// docs/FORMATS.md). Queue-full rejections are retried under the
// client's retry budget; the Idempotency-Key guarantees the retries
// enqueue at most one job. A *bytes.Reader or *os.File goes from its
// offset on every attempt, uncopied; another reader is read in once.
func (c *Client) Submit(ctx context.Context, req SubmitRequest, dataset io.Reader) (*Job, error) {
	return c.submit(ctx, "/v1/jobs", req, dataset)
}

// SubmitStreaming opens a streaming job from a PTYCHS opening
// (geometry + probe, no frames) read from opening. Feed frames with
// AppendFrames, then CloseStream; req.Iterations is the tail run after
// EOF.
func (c *Client) SubmitStreaming(ctx context.Context, req SubmitRequest, opening io.Reader) (*Job, error) {
	return c.submit(ctx, "/v1/jobs/stream", req, opening)
}

// AppendFrames pushes one PTYCHS chunk ('F' frames, or 'E' to close
// the stream) to a streaming job. Ingest-full rejections are retried
// with the server's Retry-After hint (chunk acceptance is
// all-or-nothing, so the retry is safe); a chunk that can never fit
// returns ErrChunkTooLarge immediately — split it.
func (c *Client) AppendFrames(ctx context.Context, id string, chunk []byte) (FrameAck, error) {
	var ack FrameAck
	body := func() (io.Reader, string) { return bytes.NewReader(chunk), "application/octet-stream" }
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/frames", nil, nil, body, http.StatusOK, &ack)
	return ack, err
}

// CloseStream marks the end of a streaming job's acquisition: buffered
// frames still fold, then the job runs its tail iterations. Idempotent.
func (c *Client) CloseStream(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/eof", nil, nil, nil, http.StatusOK, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Get returns the job's current summary with the default cost-history
// tail.
func (c *Client) Get(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, nil, http.StatusOK, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Trace returns the job's span timeline: queue wait, setup,
// per-iteration compute and communication phases per rank, checkpoint
// writes. The timeline of a running job is a point-in-time snapshot;
// open spans have a zero End.
func (c *Client) Trace(ctx context.Context, id string) (*JobTrace, error) {
	var tr JobTrace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, nil, nil, http.StatusOK, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// History returns the job's per-iteration cost curve: the last tail
// entries, or the complete history when tail < 0.
func (c *Client) History(ctx context.Context, id string, tail int) ([]float64, error) {
	q := url.Values{"history": []string{"all"}}
	if tail >= 0 {
		q.Set("history", strconv.Itoa(tail))
	}
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), q, nil, nil, http.StatusOK, &job); err != nil {
		return nil, err
	}
	return job.CostHistory, nil
}

// List returns one page of jobs in deterministic submit-time order.
func (c *Client) List(ctx context.Context, opts ListOptions) (*JobPage, error) {
	q := url.Values{}
	if opts.Status != "" {
		q.Set("status", opts.Status)
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	var page JobPage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", q, nil, nil, http.StatusOK, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Jobs iterates every job matching opts across pages — the
// auto-paginating form of List:
//
//	for job, err := range c.Jobs(ctx, client.ListOptions{Status: client.StateRunning}) {
//		if err != nil { ... }
//		...
//	}
//
// A non-nil error ends the iteration.
func (c *Client) Jobs(ctx context.Context, opts ListOptions) iter.Seq2[Job, error] {
	return func(yield func(Job, error) bool) {
		for {
			page, err := c.List(ctx, opts)
			if err != nil {
				yield(Job{}, err)
				return
			}
			for _, j := range page.Jobs {
				if !yield(j, nil) {
					return
				}
			}
			if page.NextCursor == "" {
				return
			}
			opts.Cursor = page.NextCursor
		}
	}
}

// Cancel cancels the job: queued jobs immediately, running ones at the
// next iteration boundary after a final checkpoint.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, nil, nil, http.StatusOK, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Resume submits a new job warm-started from the job's last OBJCKv1
// checkpoint, returning the new job.
func (c *Client) Resume(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/resume", nil, nil, nil, http.StatusAccepted, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Object streams the job's latest snapshot as OBJCKv1, returning the
// body and the completed-iteration count it corresponds to. The caller
// closes the reader. ErrNoSnapshot before the first checkpoint.
func (c *Client) Object(ctx context.Context, id string) (io.ReadCloser, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id)+"/object", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, decodeError(resp)
	}
	iters, _ := strconv.Atoi(resp.Header.Get("X-Ptycho-Iterations"))
	return resp.Body, iters, nil
}

// PreviewOptions selects a preview rendering.
type PreviewOptions struct {
	// Kind is "phase" (default) or "mag".
	Kind string
	// Slice is the object slice to render (multislice jobs).
	Slice int
}

// PreviewPNG returns the job's latest snapshot rendered as a grayscale
// PNG. ErrNoSnapshot before the first checkpoint.
func (c *Client) PreviewPNG(ctx context.Context, id string, opts PreviewOptions) ([]byte, error) {
	q := url.Values{}
	if opts.Kind != "" {
		q.Set("kind", opts.Kind)
	}
	if opts.Slice != 0 {
		q.Set("slice", strconv.Itoa(opts.Slice))
	}
	u := c.base + "/v1/jobs/" + url.PathEscape(id) + "/preview.png"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Grid returns the worker-grid coordinator's state.
func (c *Client) Grid(ctx context.Context) (*GridStatus, error) {
	var gs GridStatus
	if err := c.do(ctx, http.MethodGet, "/v1/grid", nil, nil, nil, http.StatusOK, &gs); err != nil {
		return nil, err
	}
	return &gs, nil
}

// Status returns the server's fleet-health rollup: queue and pool
// state, per-state job counts, grid worker liveness, WAL counters and
// prediction accuracy.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodGet, "/v1/status", nil, nil, nil, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Debug returns the job's debug bundle: summary with complete cost
// history, submitted parameters, span timeline and the flight
// recorder's recent events.
func (c *Client) Debug(ctx context.Context, id string) (*DebugBundle, error) {
	var db DebugBundle
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/debug", nil, nil, nil, http.StatusOK, &db); err != nil {
		return nil, err
	}
	return &db, nil
}

// Healthz checks liveness (GET /healthz — unversioned infrastructure).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, nil, http.StatusOK, nil)
}

// Wait polls the job until it reaches a terminal state (or ctx ends),
// returning the final summary. The returned job may be Failed or
// Cancelled — inspect Job.State; err reports transport/context
// failures only.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		job, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
