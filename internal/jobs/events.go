package jobs

import (
	"time"

	"ptychopath/client"
	"ptychopath/internal/obs/flight"
)

// Event is one entry of a job's live feed — what the SSE endpoint
// (GET /v1/jobs/{id}/events) streams to a beamline GUI so it can follow a
// reconstruction without polling.
//
// Types:
//
//	state      lifecycle transition; State holds the new state
//	iteration  an iteration completed; Iter (completed count) and Cost
//	frames     ingest accepted a chunk; Frames is the running total
//	fold       the engine folded arrivals; Frames is the active set
//	eof        the producer closed the stream
//	snapshot   a preview/checkpoint was published; Iter is its
//	           completed-iteration count
type Event = client.Event

// Subscribe registers a listener for the job's events. The returned
// channel is buffered (buffer entries; 64 when <= 0) and NEVER blocks
// the reconstruction: when a consumer falls behind, events are dropped
// — the feed is advisory, the polling API is the source of truth. The
// channel closes when the job reaches a terminal state (after a final
// "state" event) or when the cancel function runs. Subscribing to an
// already-terminal job yields the final state event and an immediately
// closed channel.
func (j *Job) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	j.mu.Lock()
	if j.state.Terminal() {
		ch <- Event{Type: "state", Job: j.id, State: j.state.String(), Time: time.Now()}
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[int]chan Event)
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// publishLocked fans an event out to every subscriber without
// blocking, and lands it in the job's flight recorder — the recorder
// keeps the tail of the feed even when nobody is subscribed, which is
// exactly the post-mortem case GET /v1/jobs/{id}/debug serves. Callers
// hold j.mu.
func (j *Job) publishLocked(e Event) {
	e.Job = j.id
	e.Time = time.Now()
	j.rec.Record(flight.Event{
		Time: e.Time, Kind: e.Type, State: e.State,
		Iter: e.Iter, Cost: e.Cost, Frames: e.Frames,
	})
	if len(j.subs) == 0 {
		return
	}
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default: // slow consumer: drop, never stall the solver
		}
	}
}

// closeSubsLocked ends every subscription (terminal state reached).
// Callers hold j.mu and have already published the final state event.
func (j *Job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}
