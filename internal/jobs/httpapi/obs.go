// HTTP-layer observability: the request middleware that starts every
// trace (X-Request-ID generation and propagation), the per-route
// latency histogram, structured request logging, and the trace
// timeline endpoint.
//
// The request ID is the trace context of the whole stack: the
// middleware assigns it (or adopts a well-formed one the client sent),
// echoes it on EVERY response — including problem envelopes, since the
// header is set before the handler runs — and the submit handlers
// thread it into jobs.Params so the job's span timeline, its slog
// lines, and the PTGW SETUP frame all carry the same ID.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"time"

	"ptychopath/client"
	"ptychopath/internal/obs"
)

// requestIDHeader is the trace-context header, assigned by the server
// when the client does not send one.
const requestIDHeader = "X-Request-ID"

// ctxKey keys the request ID into the request context without
// colliding with other packages' context values.
type ctxKey struct{}

// requestIDFrom returns the request's assigned ID ("" outside the
// middleware, e.g. in handler unit tests that bypass Handler()).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// newRequestID returns a fresh 16-hex-char request ID.
func newRequestID() string {
	var b [8]byte
	rand.Read(b[:]) // never fails (crypto/rand panics instead)
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied ID only when it is short
// and printable-token shaped; anything else is discarded so a hostile
// header cannot inject log lines or unbounded label values.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return id
}

// apiKeyHeader names the caller's tenant: submissions are accounted
// (and under wfq, scheduled) against the tenant named by this header.
const apiKeyHeader = "X-API-Key"

// tenantFrom derives a submission's tenant from its X-API-Key header,
// under the same sanitation as request IDs — a hostile key cannot
// inject log lines or metric label values. Empty (or rejected) keys
// return "", which the service books under its anonymous tenant.
func tenantFrom(r *http.Request) string {
	return sanitizeRequestID(r.Header.Get(apiKeyHeader))
}

// respWriter records the response status for the request log and
// histogram. Unwrap keeps http.NewResponseController (and its deadline
// plumbing in the SSE handler) working through the wrapper.
type respWriter struct {
	http.ResponseWriter
	code int
}

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *respWriter) Flush() {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *respWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// observe wraps the route mux with the request middleware: assign or
// adopt the X-Request-ID, echo it on the response before the handler
// can write anything (so problem envelopes carry it too), time the
// request, and feed the per-route histogram and the request log.
func (s *Server) observe(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get(requestIDHeader))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(requestIDHeader, rid)
		rw := &respWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, rid))
		start := time.Now()
		mux.ServeHTTP(rw, r)
		d := time.Since(start)
		// The mux fills in r.Pattern on match — a bounded label set
		// ("GET /v1/jobs/{id}", never the raw path), so the histogram's
		// cardinality cannot be driven by request spam.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := strconv.Itoa(rw.status())
		s.httpDur.Observe(d, route, status)
		s.log.Info("http request",
			"request_id", rid, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", rw.status(), "duration", d)
	})
}

// handleTrace serves a job's span timeline. The default JSON shape is
// the typed client.JobTrace; ?format=chrome exports Chrome trace-event
// JSON for chrome://tracing or ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	info, spans, err := s.svc.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, client.JobTrace{
			Job:   info,
			Spans: wireSpans(spans),
		})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			`attachment; filename="`+info.ID+`-trace.json"`)
		obs.WriteChrome(w, info.ID, spans)
	default:
		writeErr(w, badParams("format %q: want json or chrome", format))
	}
}

func wireSpans(spans []obs.Span) []client.TraceSpan {
	out := make([]client.TraceSpan, len(spans))
	for i, sp := range spans {
		out[i] = client.TraceSpan{
			ID:     sp.ID,
			Parent: sp.Parent,
			Name:   sp.Name,
			Rank:   sp.Rank,
			Iter:   sp.Iter,
			Start:  sp.Start,
			End:    sp.End,
			MS:     float64(sp.Duration().Nanoseconds()) / 1e6,
		}
	}
	return out
}
