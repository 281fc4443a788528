package client

import (
	"errors"
	"fmt"
	"time"
)

// Machine-readable error codes of the /v1 problem envelope. Every
// non-2xx /v1 response carries exactly one of these in its "code"
// member; the HTTP status is presentation, the code is the contract.
const (
	// CodeBadParams (400): malformed query/params/body/cursor — fix the
	// request, retrying it unchanged cannot succeed.
	CodeBadParams = "bad_params"
	// CodeNotFound (404): no job with that ID.
	CodeNotFound = "not_found"
	// CodeQueueFull (429): the bounded job queue has no room; retry the
	// same submission after RetryAfter.
	CodeQueueFull = "queue_full"
	// CodeIngestFull (429): the streaming job's frame buffer is full;
	// retry the same chunk after RetryAfter (acceptance is
	// all-or-nothing).
	CodeIngestFull = "ingest_full"
	// CodeQuotaExceeded (429): the submission or chunk would exceed the
	// tenant's configured quota (concurrent jobs, ingest bytes); retry
	// after RetryAfter, when the tenant's in-flight work has drained.
	CodeQuotaExceeded = "quota_exceeded"
	// CodePayloadTooLarge (413): the request body exceeds the server's
	// upload bound (-max-upload). Not retryable as-is.
	CodePayloadTooLarge = "payload_too_large"
	// CodeChunkTooLarge (400): the frame chunk exceeds the job's ingest
	// capacity and can NEVER fit — split it; backing off would livelock.
	CodeChunkTooLarge = "chunk_too_large"
	// CodeJobFinished (409): the operation needs a live job but this
	// one reached a terminal state.
	CodeJobFinished = "job_finished"
	// CodeNotResumable (409): resume needs a cancelled or failed job
	// with a checkpoint and iterations left.
	CodeNotResumable = "not_resumable"
	// CodeNotStreaming (409): frames/eof sent to a batch job.
	CodeNotStreaming = "not_streaming"
	// CodeStreamClosed (409): frames sent after the stream's EOF.
	CodeStreamClosed = "stream_closed"
	// CodeNoSnapshot (404): preview/object requested before the job's
	// first checkpoint.
	CodeNoSnapshot = "no_snapshot"
	// CodeShuttingDown (503): the server is draining; submit elsewhere
	// or later.
	CodeShuttingDown = "shutting_down"
	// CodeInternal (500): unexpected server failure.
	CodeInternal = "internal"
)

// Problem is the RFC 9457-style error envelope every /v1 error
// response carries, served as application/problem+json. Code is the
// machine-readable contract (see the Code constants); Type is its URI
// form; Detail is human-readable and unstable.
type Problem struct {
	Type   string `json:"type"`
	Title  string `json:"title"`
	Status int    `json:"status"`
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
	// RetryAfterMS mirrors the Retry-After header in milliseconds on
	// backpressure responses (queue_full, ingest_full); 0 otherwise.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ProblemType returns the "type" URI of a code.
func ProblemType(code string) string { return "urn:ptychopath:problem:" + code }

// Error is a /v1 API failure decoded into its problem envelope — the
// typed form every Client method returns for non-2xx responses. Match
// with errors.Is against the Err* sentinels (codes compare; status,
// detail and retry hints are carried along):
//
//	if errors.Is(err, client.ErrQueueFull) { ... }
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable problem code (Code* constants).
	Code string
	// Detail is the server's human-readable explanation.
	Detail string
	// RetryAfter is the server's backoff hint on backpressure errors
	// (zero when the server sent none).
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("ptychoserve: %s (status %d)", e.Code, e.Status)
	}
	return fmt.Sprintf("ptychoserve: %s: %s", e.Code, e.Detail)
}

// Is matches two API errors by code alone, so sentinel comparisons
// ignore the per-response status and detail.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Sentinels for errors.Is, one per problem code.
var (
	ErrBadParams       = &Error{Code: CodeBadParams}
	ErrNotFound        = &Error{Code: CodeNotFound}
	ErrQueueFull       = &Error{Code: CodeQueueFull}
	ErrIngestFull      = &Error{Code: CodeIngestFull}
	ErrQuotaExceeded   = &Error{Code: CodeQuotaExceeded}
	ErrPayloadTooLarge = &Error{Code: CodePayloadTooLarge}
	ErrChunkTooLarge   = &Error{Code: CodeChunkTooLarge}
	ErrJobFinished     = &Error{Code: CodeJobFinished}
	ErrNotResumable    = &Error{Code: CodeNotResumable}
	ErrNotStreaming    = &Error{Code: CodeNotStreaming}
	ErrStreamClosed    = &Error{Code: CodeStreamClosed}
	ErrNoSnapshot      = &Error{Code: CodeNoSnapshot}
	ErrShuttingDown    = &Error{Code: CodeShuttingDown}
	ErrInternal        = &Error{Code: CodeInternal}
)

// Retryable reports whether err is a backpressure rejection the server
// expects the caller to retry verbatim after Error.RetryAfter —
// queue_full, ingest_full and quota_exceeded. Client methods retry
// these automatically up to their retry budget; a Retryable error
// escaping to the caller means the budget ran out.
func Retryable(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return false
	}
	return e.Code == CodeQueueFull || e.Code == CodeIngestFull || e.Code == CodeQuotaExceeded
}
