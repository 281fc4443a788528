// Package obs is the dependency-free observability kit for the
// ptychopath serving stack: span traces that follow a job from HTTP
// accept through the grid workers' compute/comm phases, fixed-bucket
// lock-free latency histograms in the Prometheus exposition format,
// structured-logging helpers, and a strict exposition-format linter.
//
// The design constraints, in order:
//
//  1. Zero dependencies — like the rest of the repo, obs is standard
//     library only.
//  2. Zero allocations on the hot path — Histogram.Observe is a pair
//     of atomic adds; Trace appends into preallocated span storage
//     under a mutex that is touched once per iteration, never per
//     scan location.
//  3. Nil-safety — a nil *Trace or *Histogram is a valid no-op
//     receiver, so call sites never need "if tracing enabled" guards.
//
// The span model is deliberately small: a Span has an ID, a parent
// link, a name, and two typed phase attributes (Rank, Iter) instead
// of a generic attribute bag. That covers everything the paper's
// timing methodology needs — per-rank, per-iteration compute and
// communication phases around a coordinator timeline — without
// interface{} boxing or map allocation per span.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RankCoordinator marks a span recorded by the job coordinator rather
// than a worker rank.
const RankCoordinator = -1

// IterNone marks a span not tied to a specific iteration.
const IterNone = -1

// Span is one timed phase in a trace. Spans form a tree through
// Parent (0 = root span, i.e. no parent — IDs start at 1).
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Rank   int       `json:"rank"` // RankCoordinator for coordinator spans
	Iter   int       `json:"iter"` // IterNone when not iteration-scoped
	Start  time.Time `json:"start"`
	// End is zero while the span is open.
	End time.Time `json:"end,omitzero"`
}

// Duration returns End-Start, or 0 for a span still open.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is an append-only collection of spans belonging to one
// request/job, identified by a request ID that travels with it (HTTP
// X-Request-ID, PTGW SETUP trace field). Safe for concurrent use; a
// nil *Trace is a valid no-op.
type Trace struct {
	mu    sync.Mutex
	id    string
	spans []Span
}

// NewTrace returns an empty trace carrying the given request ID. Its
// spans grow with what is recorded: a finished job keeps its trace for
// /trace, so a short job's trace should hold only the spans it has.
func NewTrace(requestID string) *Trace {
	return &Trace{id: requestID}
}

// ID returns the trace's request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Begin opens a span starting now and returns its ID (0 on a nil
// trace). parent is the enclosing span's ID, or 0 for a root span.
func (t *Trace) Begin(name string, parent, rank, iter int) int {
	if t == nil {
		return 0
	}
	return t.begin(name, parent, rank, iter, time.Now())
}

// BeginAt is Begin with an explicit start time, for spans whose start
// predates the call (a queue wait measured when dequeued, say).
func (t *Trace) BeginAt(name string, parent, rank, iter int, start time.Time) int {
	if t == nil {
		return 0
	}
	return t.begin(name, parent, rank, iter, start)
}

func (t *Trace) begin(name string, parent, rank, iter int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Rank: rank, Iter: iter, Start: start,
	})
	return len(t.spans)
}

// End closes the span now. Unknown or already-closed IDs (and id 0,
// the nil-trace sentinel) are ignored.
func (t *Trace) End(id int) {
	t.EndAt(id, time.Now())
}

// EndAt closes the span at an explicit time.
func (t *Trace) EndAt(id int, at time.Time) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > len(t.spans) || !t.spans[id-1].End.IsZero() {
		return
	}
	t.spans[id-1].End = at
}

// Record appends an already-measured span: it started at start and
// lasted d. This is how externally-timed phases land in the trace —
// a worker rank's compute time arrives as a duration over the wire,
// and the coordinator anchors it against its own clock (worker clocks
// are never compared). Returns the span ID (0 on a nil trace).
func (t *Trace) Record(name string, parent, rank, iter int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Rank: rank, Iter: iter, Start: start, End: start.Add(d),
	})
	return len(t.spans)
}

// Spans returns a copy of the spans recorded so far, in creation
// order (nil on a nil trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one Chrome trace-event ("X" complete events), the
// JSON schema chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes spans as a Chrome trace-event JSON array
// (load in chrome://tracing or https://ui.perfetto.dev). Timestamps
// are microseconds relative to the earliest span; each rank renders
// as its own thread row (tid = rank+1, coordinator = 0). Open spans
// are skipped — the export is a snapshot of completed phases.
func WriteChrome(w io.Writer, process string, spans []Span) error {
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		ev := chromeEvent{
			Name: s.Name, Cat: process, Ph: "X",
			TS:  s.Start.Sub(epoch).Microseconds(),
			Dur: s.Duration().Microseconds(),
			PID: 1, TID: s.Rank + 1,
			Args: map[string]any{"id": s.ID},
		}
		if s.Iter != IterNone {
			ev.Args["iter"] = s.Iter
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}
