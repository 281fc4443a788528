package flight

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: "state"})
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder Events() = %v, want nil", got)
	}
	if r.Len() != 0 {
		t.Fatalf("nil recorder Len() = %d, want 0", r.Len())
	}
}

func TestRingKeepsLastNOldestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: "iteration", Iter: i})
	}
	got := r.Events()
	if len(got) != 4 || r.Len() != 4 {
		t.Fatalf("ring holds %d events (Len %d), want 4", len(got), r.Len())
	}
	for i, e := range got {
		if want := 6 + i; e.Iter != want {
			t.Fatalf("event %d is iter %d, want %d (not oldest-first last-N)", i, e.Iter, want)
		}
	}
}

func TestPartialFillAndTimestamp(t *testing.T) {
	r := NewRecorder(0) // DefaultDepth
	before := time.Now()
	r.Record(Event{Kind: "state", State: "queued"})
	r.Record(Event{Kind: "state", State: "running"})
	got := r.Events()
	if len(got) != 2 {
		t.Fatalf("%d events, want 2", len(got))
	}
	if got[0].State != "queued" || got[1].State != "running" {
		t.Fatalf("order broken: %+v", got)
	}
	if got[0].Time.Before(before.Add(-time.Second)) || got[0].Time.IsZero() {
		t.Fatalf("zero Time not stamped: %v", got[0].Time)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: "iteration", Detail: fmt.Sprintf("g%d", g), Iter: i})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len %d after 800 concurrent records into a 64-ring", r.Len())
	}
	for _, e := range r.Events() {
		if e.Kind != "iteration" || e.Time.IsZero() {
			t.Fatalf("torn event survived: %+v", e)
		}
	}
}

func TestFreshRecorderHoldsNoRing(t *testing.T) {
	r := NewRecorder(0)
	if r.buf != nil || r.Len() != 0 || r.Events() != nil {
		t.Fatalf("fresh recorder holds %d-slot ring, Len %d, Events %v; want nothing", cap(r.buf), r.Len(), r.Events())
	}
	r.Record(Event{Kind: "state"})
	if cap(r.buf) >= DefaultDepth {
		t.Fatalf("one event allocated a %d-slot ring", cap(r.buf))
	}
}

// TestDefaultDepthWrap walks a default recorder through the wrap:
// below, at and past DefaultDepth, Events holds the last min(n, depth)
// events oldest first, and each event past the depth evicts the oldest.
func TestDefaultDepthWrap(t *testing.T) {
	r := NewRecorder(0)
	for n := 1; n <= 3*DefaultDepth+1; n++ {
		r.Record(Event{Kind: "iteration", Iter: n})
		switch n {
		case 1, DefaultDepth - 1, DefaultDepth, DefaultDepth + 1, 2 * DefaultDepth, 3*DefaultDepth + 1:
		default:
			continue
		}
		got := r.Events()
		want := min(n, DefaultDepth)
		if len(got) != want || r.Len() != want {
			t.Fatalf("after %d events: %d held (Len %d), want %d", n, len(got), r.Len(), want)
		}
		for i, e := range got {
			if e.Iter != n-want+1+i {
				t.Fatalf("after %d events: event %d is iter %d, want %d (oldest first)", n, i, e.Iter, n-want+1+i)
			}
		}
	}
}
