// Package httpapi exposes the reconstruction job service (internal/jobs)
// over HTTP — the transport layer of cmd/ptychoserve.
//
// The public surface is versioned under /v1:
//
//	POST /v1/jobs                 multipart submit: a "params" JSON part
//	                              (client.SubmitRequest, strictly decoded)
//	                              + a "dataset" part: a closed PTYCHS
//	                              stream, checked and spooled as it
//	                              arrives. 202 with the job summary.
//	                              Honors Idempotency-Key.
//	POST /v1/jobs/stream          multipart submit of a STREAMING job: a
//	                              "params" part + a "dataset" PTYCHS
//	                              opening (header + probe, no frames).
//	GET  /v1/jobs                 page of jobs in submit order:
//	                              ?limit=N&cursor=C&status=S →
//	                              {"jobs": [...], "next_cursor": "..."}
//	GET  /v1/jobs/{id}            one job, with the cost-history tail
//	                              (?history=N entries, ?history=all)
//	POST /v1/jobs/{id}/frames     body: one PTYCHS chunk ('F' frames,
//	                              'E' closes). 200 with {accepted,total};
//	                              429 ingest_full when the buffer is full
//	POST /v1/jobs/{id}/eof        close the stream; the job folds what is
//	                              buffered and runs its tail iterations
//	GET  /v1/jobs/{id}/events     Server-Sent-Events live feed
//	POST /v1/jobs/{id}/cancel     cancel (queued: immediate; running: next
//	                              iteration boundary)
//	POST /v1/jobs/{id}/resume     new job warm-started from the last
//	                              OBJCKv1 checkpoint
//	GET  /v1/jobs/{id}/preview.png  grayscale preview of the latest
//	                              snapshot (?kind=phase|mag, ?slice=N)
//	GET  /v1/jobs/{id}/object     latest snapshot as an OBJCKv1 stream
//	GET  /v1/jobs/{id}/trace      span timeline of the job (queue wait,
//	                              setup, per-iteration compute/comm per
//	                              rank, checkpoints); ?format=chrome
//	                              exports Chrome trace-event JSON
//	GET  /v1/jobs/{id}/debug      failure dossier: summary with full cost
//	                              history, submitted params, span timeline
//	                              and the flight recorder's recent events
//	GET  /v1/grid                 worker-grid status, with per-worker
//	                              liveness (last_seen) and transport totals
//	GET  /v1/status               fleet-health rollup: queue/pool state,
//	                              per-state job counts, grid, WAL counters,
//	                              prediction accuracy
//	GET  /metrics                 Prometheus text exposition (unversioned)
//	GET  /healthz                 liveness (unversioned)
//
// Every /v1 error response is an RFC 9457-style problem envelope
// (application/problem+json, schema client.Problem) carrying a
// machine-readable "code" — queue_full, ingest_full, not_found,
// bad_params, payload_too_large, … — and retry_after_ms on
// backpressure. The typed Go SDK for this surface is the top-level
// client package.
//
// Every response carries an X-Request-ID header — the client's own, if
// it sent a well-formed one, otherwise server-assigned. A submission's
// request ID becomes the job's trace context: it labels the job's span
// timeline, its structured log lines, and the PTGW SETUP frame sent to
// grid workers (see obs.go).
//
// Nothing but /metrics and /healthz is served outside /v1. The job,
// status, event and grid objects are the structs package client
// declares; internal/jobs fills those same types (its Info, Status, …
// are aliases), so what a handler gets from the service is what it
// encodes — only Params, which is also the WAL record and carries
// server-assigned fields, is mapped (paramsFromRequest).
//
// The complete reference with copy-pasteable curl examples (smoke-run
// by CI) lives in docs/HTTP_API.md.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ptychopath"
	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/grid"
	"ptychopath/internal/jobs"
	"ptychopath/internal/obs"
	"ptychopath/internal/obs/flight"
	"ptychopath/internal/stream"
)

// DefaultMaxUploadBytes bounds request bodies (datasets, stream
// openings, frame chunks) when WithMaxUpload is not given.
const DefaultMaxUploadBytes = 1 << 30

// Pagination bounds of GET /v1/jobs.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// Server adapts a jobs.Service to HTTP.
type Server struct {
	svc       *jobs.Service
	maxUpload int64
	log       *slog.Logger
	// httpDur is the request-latency histogram, labeled by matched
	// route pattern and response status. Written by handleMetrics after
	// the service's own metric families.
	httpDur *obs.HistogramVec
}

// Option configures the server.
type Option func(*Server)

// WithMaxUpload bounds request bodies at n bytes; beyond it requests
// answer 413 payload_too_large instead of buffering without limit.
func WithMaxUpload(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxUpload = n
		}
	}
}

// WithLogger routes the per-request log lines (method, route, status,
// duration, request ID) to l. Requests are not logged by default.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// New wraps a service.
func New(svc *jobs.Service, opts ...Option) *Server {
	s := &Server{
		svc:       svc,
		maxUpload: DefaultMaxUploadBytes,
		log:       obs.Discard(),
		httpDur: obs.NewHistogramVec("ptychoserve_http_request_duration_seconds",
			"HTTP request duration by route pattern and status.",
			[]string{"route", "status"}, obs.DefBuckets),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Handler returns the route mux: the /v1 surface and the unversioned
// infrastructure endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/stream", s.handleSubmitStream)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/frames", s.handleFrames)
	mux.HandleFunc("POST /v1/jobs/{id}/eof", s.handleEOF)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /v1/jobs/{id}/preview.png", s.handlePreview)
	mux.HandleFunc("GET /v1/jobs/{id}/object", s.handleObject)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/debug", s.handleDebug)
	mux.HandleFunc("GET /v1/grid", s.handleGrid)
	mux.HandleFunc("GET /v1/status", s.handleStatus)

	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s.observe(mux)
}

// httpError carries a status and problem code decided at the call
// site, wrapping the underlying cause so sentinel checks (and the
// MaxBytesError probe) still see through it.
type httpError struct {
	status int
	code   string
	msg    string
	cause  error
}

func (e *httpError) Error() string { return e.msg }
func (e *httpError) Unwrap() error { return e.cause }

// badParams is the constructor for the most common client error.
func badParams(format string, args ...any) *httpError {
	err := fmt.Errorf(format, args...)
	return &httpError{status: http.StatusBadRequest, code: client.CodeBadParams, msg: err.Error(), cause: errors.Unwrap(err)}
}

// Static Retry-After fallbacks for the backpressure paths, used only
// when the rejection does not carry a live jobs.Backpressure hint: a
// full ingest drains at the next iteration boundary (fast); a full job
// queue needs a whole job to finish; a tenant at quota frees capacity
// when one of its jobs does.
const (
	retryAfterIngestMS = 1000
	retryAfterQueueMS  = 5000
	retryAfterQuotaMS  = 1000
)

var problemTitles = map[string]string{
	client.CodeBadParams:       "invalid request parameters",
	client.CodeNotFound:        "no such job",
	client.CodeQueueFull:       "job queue full",
	client.CodeIngestFull:      "ingest buffer full",
	client.CodeQuotaExceeded:   "tenant quota exceeded",
	client.CodePayloadTooLarge: "request body too large",
	client.CodeChunkTooLarge:   "chunk exceeds ingest capacity",
	client.CodeJobFinished:     "job already finished",
	client.CodeNotResumable:    "job not resumable",
	client.CodeNotStreaming:    "not a streaming job",
	client.CodeStreamClosed:    "stream already closed",
	client.CodeNoSnapshot:      "no snapshot yet",
	client.CodeShuttingDown:    "service shutting down",
	client.CodeInternal:        "internal error",
}

// problemFor maps an error to its /v1 problem envelope. This is THE
// status/code table of the API — the table-driven envelope test pins
// every row.
func problemFor(err error) client.Problem {
	status, code := http.StatusInternalServerError, client.CodeInternal
	var retryMS int64
	var mbe *http.MaxBytesError
	var he *httpError
	switch {
	case errors.As(err, &mbe):
		// http.MaxBytesReader tripped (possibly deep inside a decoder):
		// the body exceeds -max-upload. Reported before the generic
		// wrapper cases so the cap never masquerades as a decode error.
		status, code = http.StatusRequestEntityTooLarge, client.CodePayloadTooLarge
	case errors.As(err, &he):
		status, code = he.status, he.code
	case errors.Is(err, jobs.ErrBadCursor), errors.Is(err, jobs.ErrInvalidParams):
		status, code = http.StatusBadRequest, client.CodeBadParams
	case errors.Is(err, jobs.ErrNotFound):
		status, code = http.StatusNotFound, client.CodeNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		// Backpressure, not failure: the client should retry the same
		// submission after the hint.
		status, code = http.StatusTooManyRequests, client.CodeQueueFull
		retryMS = retryAfterQueueMS
	case errors.Is(err, stream.ErrIngestFull):
		status, code = http.StatusTooManyRequests, client.CodeIngestFull
		retryMS = retryAfterIngestMS
	case errors.Is(err, jobs.ErrQuotaExceeded):
		status, code = http.StatusTooManyRequests, client.CodeQuotaExceeded
		retryMS = retryAfterQuotaMS
	case errors.Is(err, stream.ErrChunkTooLarge):
		// Non-retryable: the chunk can NEVER fit. 400 so a compliant
		// feeder splits it instead of backing off forever.
		status, code = http.StatusBadRequest, client.CodeChunkTooLarge
	case errors.Is(err, jobs.ErrFinished):
		status, code = http.StatusConflict, client.CodeJobFinished
	case errors.Is(err, jobs.ErrNotResumable):
		status, code = http.StatusConflict, client.CodeNotResumable
	case errors.Is(err, jobs.ErrNotStreaming):
		status, code = http.StatusConflict, client.CodeNotStreaming
	case errors.Is(err, stream.ErrStreamClosed):
		status, code = http.StatusConflict, client.CodeStreamClosed
	case errors.Is(err, jobs.ErrClosed):
		status, code = http.StatusServiceUnavailable, client.CodeShuttingDown
	}
	// Honest admission: when the service wrapped the rejection with a
	// live drain estimate, that overrides the static fallback — the
	// advertised Retry-After shrinks as the queue drains and grows as
	// it fills.
	var bp *jobs.Backpressure
	if retryMS > 0 && errors.As(err, &bp) && bp.RetryAfter > 0 {
		retryMS = bp.RetryAfter.Milliseconds()
	}
	return client.Problem{
		Type:         client.ProblemType(code),
		Title:        problemTitles[code],
		Status:       status,
		Code:         code,
		Detail:       err.Error(),
		RetryAfterMS: retryMS,
	}
}

func writeErr(w http.ResponseWriter, err error) {
	p := problemFor(err)
	w.Header().Set("Content-Type", "application/problem+json")
	if p.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((p.RetryAfterMS+999)/1000, 10))
	}
	w.WriteHeader(p.Status)
	json.NewEncoder(w).Encode(p)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badParams("parameter %s: %v", key, err)
	}
	return n, nil
}

// paramsFromRequest maps the wire-contract SubmitRequest onto the
// service's Params. Semantic validation (ranges, algorithm names,
// mesh/grid consistency) stays in jobs — this is a pure rename, kept
// because Params is also the WAL record and carries fields a client
// must not set (StartIter, RequestID, Tenant).
func paramsFromRequest(req client.SubmitRequest) jobs.Params {
	return jobs.Params{
		Algorithm:          req.Algorithm,
		Iterations:         req.Iterations,
		StepSize:           req.StepSize,
		MeshRows:           req.MeshRows,
		MeshCols:           req.MeshCols,
		RoundsPerIteration: req.RoundsPerIteration,
		IntraWorkers:       req.IntraWorkers,
		CheckpointEvery:    req.CheckpointEvery,
		Grid:               req.Grid,
		Priority:           req.Priority,
		FoldEvery:          req.FoldEvery,
		MaxIterations:      req.MaxIterations,
		IngestCapacity:     req.IngestCapacity,
	}
}

// readSubmitParts decodes a /v1 multipart submission: a "params" JSON
// part (optional — defaults apply) decoded strictly against
// client.SubmitRequest, and one required "dataset" part handed to
// decodeDataset as it streams in. Unknown part names are rejected so a
// misspelled part cannot be silently dropped.
func (s *Server) readSubmitParts(w http.ResponseWriter, r *http.Request, decodeDataset func(io.Reader) error) (client.SubmitRequest, error) {
	var req client.SubmitRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.maxUpload)
	mr, err := r.MultipartReader()
	if err != nil {
		return req, badParams("reading multipart submit body (want a params JSON part and a dataset part): %w", err)
	}
	seenDataset := false
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return req, badParams("reading multipart submit body: %w", err)
		}
		switch name := part.FormName(); {
		case name == "params":
			dec := json.NewDecoder(part)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				return req, badParams("params part does not decode as a SubmitRequest: %w", err)
			}
		case name == "dataset" && !seenDataset:
			if err := decodeDataset(part); err != nil {
				return req, fmt.Errorf("dataset part: %w", err)
			}
			seenDataset = true
		default:
			return req, badParams("unknown or repeated part %q (want params, dataset)", name)
		}
	}
	if !seenDataset {
		return req, badParams("multipart submit body has no dataset part")
	}
	return req, nil
}

// handleSubmit accepts the multipart submission, its dataset part
// checked and spooled as it arrives, and enqueues a batch job,
// idempotently when the request carries an Idempotency-Key.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var ds *jobs.Dataset
	req, err := s.readSubmitParts(w, r, func(body io.Reader) (err error) {
		ds, err = s.svc.SpoolDataset(body)
		return err
	})
	if err != nil {
		if ds != nil {
			s.svc.DiscardDataset(ds)
		}
		writeErr(w, err)
		return
	}
	p := paramsFromRequest(req)
	p.RequestID = requestIDFrom(r.Context())
	p.Tenant = tenantFrom(r)
	j, created, err := s.svc.SubmitDataset(ds, p, r.Header.Get("Idempotency-Key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if !created {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	writeJSON(w, http.StatusAccepted, j.Info(0))
}

// handleSubmitStream opens a streaming job from a multipart body
// whose dataset part is a PTYCHS opening.
func (s *Server) handleSubmitStream(w http.ResponseWriter, r *http.Request) {
	var hdr *dataio.StreamHeader
	req, err := s.readSubmitParts(w, r, func(body io.Reader) error {
		var derr error
		if hdr, derr = dataio.ReadStreamHeader(body); derr != nil {
			return badParams("%w", derr)
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	p := paramsFromRequest(req)
	p.RequestID = requestIDFrom(r.Context())
	p.Tenant = tenantFrom(r)
	j, created, err := s.svc.SubmitStreamingWithKey(hdr, p, r.Header.Get("Idempotency-Key"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if !created {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	writeJSON(w, http.StatusAccepted, j.Info(0))
}

// handleList serves one page of jobs: deterministic submit-time
// order, optional status filter, cursor pagination.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", defaultPageLimit)
	if err != nil {
		writeErr(w, err)
		return
	}
	if limit < 1 || limit > maxPageLimit {
		writeErr(w, badParams("parameter limit: %d outside [1, %d]", limit, maxPageLimit))
		return
	}
	infos, next, err := s.svc.ListPage(jobs.ListOptions{
		Status: r.URL.Query().Get("status"),
		Cursor: r.URL.Query().Get("cursor"),
		Limit:  limit,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.JobPage{Jobs: infos, NextCursor: next})
}

// handleFrames ingests one PTYCHS chunk. An 'F' chunk appends
// frames (429 ingest_full when the bounded ingest is full — retry the
// same chunk); an 'E' chunk closes the stream like POST eof.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	windowN := j.WindowN()
	if windowN == 0 {
		writeErr(w, fmt.Errorf("%w: %s", jobs.ErrNotStreaming, j.ID()))
		return
	}
	frames, eof, err := dataio.ReadChunk(http.MaxBytesReader(w, r.Body, s.maxUpload), windowN)
	if err != nil {
		writeErr(w, badParams("decoding chunk: %w", err))
		return
	}
	if eof {
		if err := s.svc.CloseStream(j.ID()); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, client.FrameAck{EOF: true, Total: j.Info(0).Frames})
		return
	}
	total, err := s.svc.AppendFrames(j.ID(), frames)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.FrameAck{Accepted: len(frames), Total: total})
}

func (s *Server) handleEOF(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.svc.CloseStream(j.ID()); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info(0))
}

// handleEvents streams the job's live feed as Server-Sent Events: an
// initial "info" event with the full job summary, then one event per
// iteration, ingest acceptance, fold, snapshot (preview-ready) and
// state transition, until the job reaches a terminal state or the
// client disconnects. Pair with GET preview.png: refetch the preview
// whenever a "snapshot" event arrives.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &httpError{status: http.StatusNotImplemented, code: client.CodeInternal,
			msg: "response writer does not support streaming"})
		return
	}
	// The feed outlives any server-wide write deadline (slowloris
	// protection sized for request/response exchanges, not for a feed
	// that legitimately lasts the length of a reconstruction) — exempt
	// this connection. Errors are advisory: a transport without
	// deadline support just keeps its defaults.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	ch, cancel := j.Subscribe(256)
	defer cancel()
	if !send("info", j.Info(0)) {
		return
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				return
			}
			if !send(e.Type, e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) job(r *http.Request) (*jobs.Job, error) {
	id := r.PathValue("id")
	j, ok := s.svc.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", jobs.ErrNotFound, id)
	}
	return j, nil
}

// defaultHistoryTail bounds the cost history served per status poll;
// history grows one entry per iteration without limit, so a polling
// client should not receive megabytes per request. ?history=N widens
// the tail, ?history=all returns everything.
const defaultHistoryTail = 256

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	tail := defaultHistoryTail
	if v := r.URL.Query().Get("history"); v == "all" {
		tail = -1
	} else if v != "" {
		if tail, err = queryInt(r, "history", defaultHistoryTail); err != nil {
			writeErr(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Info(tail))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.svc.Cancel(j.ID()); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info(0))
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	resumed, err := s.svc.Resume(j.ID())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resumed.Info(0))
}

// handlePreview renders the latest object as a grayscale PNG — the
// live view an operator (or beamline GUI) polls while a job runs.
func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	snap, _, ok := s.object(w, r)
	if !ok {
		return
	}
	si, err := queryInt(r, "slice", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	if si < 0 || si >= len(snap) {
		writeErr(w, badParams("slice %d outside [0,%d)", si, len(snap)))
		return
	}
	f := fieldFrom(snap[si])
	var img = ptycho.PhaseImage(f)
	switch kind := r.URL.Query().Get("kind"); kind {
	case "", "phase":
	case "mag":
		img = ptycho.MagnitudeImage(f)
	default:
		writeErr(w, badParams("kind %q: want phase or mag", kind))
		return
	}
	w.Header().Set("Content-Type", "image/png")
	png.Encode(w, img)
}

// handleObject streams the latest object as OBJCKv1 — the same bytes
// a checkpoint file holds, for archival or offline analysis.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	snap, iter, ok := s.object(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ptycho-Iterations", strconv.Itoa(iter))
	dataio.WriteObject(w, snap)
}

// object looks up the request's job and its latest object, answering
// the request itself (false) when there is none. A finished job's
// object is its checkpoint file: the log says the file was written, so
// failing to read it back is the server's fault, not "no snapshot yet".
func (s *Server) object(w http.ResponseWriter, r *http.Request) ([]*grid.Complex2D, int, bool) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return nil, 0, false
	}
	snap, iter, err := j.Object()
	if err == nil && snap == nil {
		err = &httpError{status: http.StatusNotFound, code: client.CodeNoSnapshot,
			msg: "no snapshot yet (before first checkpoint)"}
	}
	if err != nil {
		writeErr(w, err)
		return nil, 0, false
	}
	return snap, iter, true
}

// handleGrid reports the worker-grid coordinator's state: whether a
// grid is configured, its listen address, and every registered worker
// endpoint (submit grid jobs with "grid": true when enough are idle).
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	workers := s.svc.GridWorkers()
	idle := 0
	for _, wk := range workers {
		if !wk.Busy {
			idle++
		}
	}
	writeJSON(w, http.StatusOK, client.GridStatus{
		Enabled: s.svc.GridEnabled(),
		Addr:    s.svc.GridAddr(),
		Workers: workers,
		Idle:    idle,
	})
}

// handleStatus serves the fleet-health rollup: one JSON object a
// dashboard (cmd/ptychotop) or a probe polls instead of stitching
// /metrics, /v1/grid and the job list together.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Status())
}

// handleDebug serves a job's failure dossier in one response: the
// summary with its COMPLETE cost history, the parameters as submitted,
// the span timeline, and the flight recorder's recent events — what an
// operator attaches to a bug report instead of four separate captures.
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, debugBundle(j.Info(-1), j.Params(), j.Trace().Spans(), j.FlightEvents()))
}

func debugBundle(info client.Job, p jobs.Params, spans []obs.Span, events []flight.Event) client.DebugBundle {
	fe := make([]client.FlightEvent, len(events))
	for i, e := range events {
		fe[i] = client.FlightEvent(e)
	}
	return client.DebugBundle{Job: info, Params: requestFromParams(p), Spans: wireSpans(spans), Events: fe}
}

// requestFromParams is paramsFromRequest in reverse: the job's
// effective parameters rendered back onto the wire-contract shape for
// the debug bundle.
func requestFromParams(p jobs.Params) client.SubmitRequest {
	return client.SubmitRequest{
		Algorithm:          p.Algorithm,
		Iterations:         p.Iterations,
		StepSize:           p.StepSize,
		MeshRows:           p.MeshRows,
		MeshCols:           p.MeshCols,
		RoundsPerIteration: p.RoundsPerIteration,
		IntraWorkers:       p.IntraWorkers,
		CheckpointEvery:    p.CheckpointEvery,
		Grid:               p.Grid,
		Priority:           p.Priority,
		FoldEvery:          p.FoldEvery,
		MaxIterations:      p.MaxIterations,
		IngestCapacity:     p.IngestCapacity,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.WriteMetrics(w)
	s.httpDur.Write(w)
}

func fieldFrom(a *grid.Complex2D) ptycho.Field {
	f := ptycho.NewField(a.W(), a.H())
	copy(f.Data, a.Data)
	return f
}
