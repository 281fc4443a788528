// Package flight is the failure flight recorder: a bounded ring of
// recent structured events kept per job, cheap enough to run for every
// job all the time, so that when a job fails the last N things that
// happened to it — state changes, iterations, folds, checkpoint
// writes, rank-stats anomalies — are available in one debug bundle
// without having had logging verbosity turned up in advance.
//
// Like the rest of internal/obs it is dependency-free and nil-safe: a
// nil *Recorder is a valid no-op receiver, so call sites never guard.
package flight

import (
	"sync"
	"time"
)

// Event is one recorded moment. Kind names what happened ("state",
// "iteration", "snapshot", "fold", "checkpoint", "prediction",
// "straggler", "error", ...); the remaining fields carry whatever
// subset applies.
type Event struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	State  string    `json:"state,omitempty"`
	Iter   int       `json:"iter,omitempty"`
	Cost   float64   `json:"cost,omitempty"`
	Frames int       `json:"frames,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// DefaultDepth is the ring capacity used when NewRecorder is given a
// non-positive one: enough to hold the tail of a failing run.
const DefaultDepth = 128

// Recorder is a bounded ring of Events: it grows with what it records
// up to its depth, then evicts the oldest. Safe for concurrent use; a
// nil *Recorder no-ops.
type Recorder struct {
	mu    sync.Mutex
	depth int
	buf   []Event // grows to depth, then wraps
	next  int     // once full, the index of the oldest event (the next overwrite)
}

// NewRecorder returns a recorder keeping the last depth events
// (DefaultDepth when depth <= 0). It holds no ring until the first
// event: a job that records little costs little.
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{depth: depth}
}

// Record appends one event, evicting the oldest when full. A zero
// Time is stamped with the current time.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	if len(r.buf) < r.depth {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.depth
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events, oldest first (nil on
// a nil or empty recorder).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns how many events are currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
