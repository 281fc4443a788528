package jobs

import (
	"errors"
	"sync"
	"testing"
)

// submitN enqueues n jobs against a service whose single worker is
// never started draining them (Workers: 1 with a long first job), so
// the registry order and the job states are fully deterministic for
// pagination tests: the first job pins the worker, the rest stay
// queued. The blocker is cancelled on cleanup so Close does not wait
// it out.
func submitN(t *testing.T, s *Service, n int) []string {
	t.Helper()
	prob := tinyProblem(t)
	ids := make([]string, n)
	for i := range ids {
		iters := 1
		if i == 0 {
			iters = 1000000
		}
		j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
	}
	t.Cleanup(func() { s.Cancel(ids[0]) })
	return ids
}

func TestListPagePagination(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 64})
	ids := submitN(t, s, 7)

	// Page through with limit 3: 3 + 3 + 1, in submit order, with the
	// cursor chain terminating.
	var got []string
	cursor := ""
	pages := 0
	for {
		page, next, err := s.ListPage(ListOptions{Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, info := range page {
			got = append(got, info.ID)
		}
		if next == "" {
			break
		}
		cursor = next
		if pages > 10 {
			t.Fatal("cursor chain does not terminate")
		}
	}
	if len(got) != len(ids) {
		t.Fatalf("paged listing returned %d jobs, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		if got[i] != id {
			t.Fatalf("page order[%d] = %s, want %s (deterministic submit order)", i, got[i], id)
		}
	}
	if pages != 3 {
		t.Errorf("7 jobs with limit 3 took %d pages, want 3", pages)
	}

	// Cursor at the very end: empty page, no next, no error.
	page, next, err := s.ListPage(ListOptions{Cursor: ids[len(ids)-1], Limit: 3})
	if err != nil {
		t.Fatalf("cursor at end: %v", err)
	}
	if len(page) != 0 || next != "" {
		t.Fatalf("cursor at end: %d jobs, next %q; want empty page", len(page), next)
	}

	// Unknown cursor is a client error.
	if _, _, err := s.ListPage(ListOptions{Cursor: "job-9999"}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("unknown cursor: %v, want ErrBadCursor", err)
	}
	// ErrBadCursor is its own sentinel, distinct from ErrInvalidParams
	// (the HTTP layer maps both to bad_params).
	if errors.Is(ErrBadCursor, ErrInvalidParams) {
		t.Fatal("ErrBadCursor must not wrap ErrInvalidParams")
	}

	// Unknown status filter is a client error.
	if _, _, err := s.ListPage(ListOptions{Status: "bogus"}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("unknown status: %v, want ErrInvalidParams", err)
	}

	// Status filter: everything is queued or running here; filtering on
	// "done" yields an empty page with no error and no cursor.
	page, next, err = s.ListPage(ListOptions{Status: "done", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 0 || next != "" {
		t.Fatalf("done filter: %d jobs, next %q; want none", len(page), next)
	}

	// Unfiltered, unbounded: the whole registry in submit order.
	all, next, err := s.ListPage(ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Fatalf("unbounded page still has a cursor %q", next)
	}
	if len(all) != len(ids) {
		t.Fatalf("unbounded ListPage returned %d jobs, want %d", len(all), len(ids))
	}
	for i, info := range all {
		if info.ID != ids[i] {
			t.Fatalf("unbounded ListPage[%d] = %s, want %s", i, info.ID, ids[i])
		}
	}
}

// allJobs is the whole registry, through the one listing the service has.
func allJobs(t *testing.T, s *Service) []Info {
	t.Helper()
	infos, _, err := s.ListPage(ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return infos
}

// TestSubmitIdempotentRace: two goroutines race the same
// Idempotency-Key; exactly one job may exist, and both calls must
// return it.
func TestSubmitIdempotentRace(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 64})
	prob := tinyProblem(t)

	const attempts = 16
	var wg sync.WaitGroup
	jobs := make([]*Job, attempts)
	created := make([]bool, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, c, err := s.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 1}, "retry-key-1")
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i], created[i] = j, c
		}(i)
	}
	wg.Wait()

	creations := 0
	for i := range jobs {
		if jobs[i] == nil {
			t.Fatal("a submission returned no job")
		}
		if jobs[i] != jobs[0] {
			t.Fatalf("submissions returned different jobs: %s vs %s", jobs[i].ID(), jobs[0].ID())
		}
		if created[i] {
			creations++
		}
	}
	if creations != 1 {
		t.Fatalf("%d submissions claim to have created the job, want exactly 1", creations)
	}
	if n := len(allJobs(t, s)); n != 1 {
		t.Fatalf("registry holds %d jobs, want 1", n)
	}

	// A different key is a different job.
	j2, c2, err := s.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 1}, "retry-key-2")
	if err != nil {
		t.Fatal(err)
	}
	if !c2 || j2 == jobs[0] {
		t.Fatalf("distinct key replayed the first job")
	}

	// No key never replays.
	j3, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j3 == jobs[0] || j3 == j2 {
		t.Fatal("keyless submit replayed an existing job")
	}
}

// TestSubmitIdempotentKeyFreeOnReject: a queue-full rejection must not
// claim the key, or the retry the 429 demands could never succeed.
func TestSubmitIdempotentKeyFreeOnReject(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	prob := tinyProblem(t)

	// Fill the worker and the depth-1 queue.
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 1000000}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return s.QueueDepth() == 0 })
	if _, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 1000000}); err != nil {
		t.Fatal(err)
	}

	_, _, err := s.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 1}, "key-after-full")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}

	// Free the queue slot, retry the same key: it must enqueue.
	for _, info := range allJobs(t, s) {
		s.Cancel(info.ID)
	}
	j, created, err := s.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 1}, "key-after-full")
	if err != nil {
		t.Fatalf("retry after queue drain: %v", err)
	}
	if !created {
		t.Fatalf("retry replayed a rejected submission (job %s)", j.ID())
	}
	s.Cancel(j.ID())
}
