package jobs

// Crash-recovery matrix: kill the store's filesystem at every
// interesting point of the job lifecycle, restart the service on the
// same state directory, and require the recovered run to converge to
// the SAME OBJECT BYTES an uninterrupted run produces. The serial
// algorithm is deterministic, datasets round-trip bit-exactly through
// the spool, and checkpoints hold the exact object — so "recovered"
// is not "approximately resumed", it is bit-identical.

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/jobs/store/faultfs"

	"path/filepath"
)

// life is one process lifetime of a durable service: a fault-injected
// filesystem under a WAL store under a service, all on dir.
type life struct {
	t     *testing.T
	fault *faultfs.Fault
	st    *store.WAL
	svc   *Service
}

// openLife starts a service on dir's WAL through a fresh fault
// injector. Every call with the same dir is one more process lifetime
// over the same durable state.
func openLife(t *testing.T, dir string, cfg Config) *life {
	t.Helper()
	fault := faultfs.Wrap(faultfs.OS{})
	st, err := store.OpenWAL(store.WALConfig{Dir: dir, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	cfg.SpoolDir = filepath.Join(dir, "checkpoints")
	svc, err := NewService(cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	l := &life{t: t, fault: fault, st: st, svc: svc}
	t.Cleanup(l.stop) // idempotent; after crash() it is a no-op
	return l
}

// crash kills the filesystem — every byte written so far stays, every
// write from here on fails, exactly as if the process had died this
// instant — then tears down the in-process half. Shutdown (not Close)
// because a blocked streaming job would otherwise drain forever; its
// post-kill terminal writes all fail, so the disk state stays frozen
// at the kill point.
func (l *life) crash() {
	l.fault.Kill()
	l.stop()
}

func (l *life) stop() {
	l.svc.Shutdown()
	l.st.Close()
}

// objectBytes serializes a job's final object as Job.Object serves it.
func objectBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	slices, _ := mustObject(t, j)
	var buf bytes.Buffer
	if err := dataio.WriteObject(&buf, slices); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baselineBatch runs the job uninterrupted on an in-memory service and
// returns its final object bytes — the reference every crashed-and-
// recovered run must reproduce exactly.
func baselineBatch(t *testing.T, p Params) []byte {
	t.Helper()
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	j, err := s.Submit(prob, p)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "baseline done", func() bool { return j.State() == Done })
	return objectBytes(t, j)
}

// baselineStream mirrors the streaming crash phase without the crash:
// a blocker job pins the single worker, so the target receives its
// complete stream (all frames, then EOF) while still queued and runs
// one deterministic fold-then-tail once released. The crashed run is
// driven through the same single-fold shape, which is what makes the
// streaming comparison bit-exact.
func baselineStream(t *testing.T, p Params) []byte {
	t.Helper()
	prob := tinyProblem(t)
	hdr := dataio.HeaderFromProblem(prob)
	frames := dataio.FramesFromProblem(prob)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})

	blocker, err := s.SubmitStreaming(hdr, Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "baseline blocker running", func() bool { return blocker.State() == Running })
	j, err := s.SubmitStreaming(hdr, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendFrames(j.ID(), frames); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseStream(j.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "baseline stream done", func() bool { return j.State() == Done })
	return objectBytes(t, j)
}

// TestCrashRecoveryMatrix is the headline acceptance test: one subtest
// per lifecycle phase, each crashing the store at that phase and
// requiring recovery to (1) bring the job back under its original ID
// with the right recovered_from marker and (2) finish with object
// bytes identical to an uninterrupted run.
func TestCrashRecoveryMatrix(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		p := Params{Algorithm: "serial", Iterations: 8, CheckpointEvery: 3}
		want := baselineBatch(t, p)
		dir := t.TempDir()

		l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		prob := tinyProblem(t)
		// Pin the single worker with a streaming job that never sees
		// EOF, so the target dies while still queued.
		blocker, err := l1.svc.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
		j, err := l1.svc.Submit(prob, p)
		if err != nil {
			t.Fatal(err)
		}
		id := j.ID()
		if j.State() != Queued {
			t.Fatalf("target state %v, want queued", j.State())
		}
		l1.crash()

		l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		recovered, _, unrecoverable, records, torn := l2.svc.RecoveryStats()
		if recovered != 2 || unrecoverable != 0 || torn != 0 || records == 0 {
			t.Fatalf("recovery stats: recovered=%d unrecoverable=%d records=%d torn=%d",
				recovered, unrecoverable, records, torn)
		}
		// The blocker came back too (still EOF-less); release the pool.
		if err := l2.svc.Cancel(blocker.ID()); err != nil {
			t.Fatal(err)
		}
		rj, ok := l2.svc.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitFor(t, "recovered job done", func() bool { return rj.State() == Done })
		info := rj.Info(-1)
		if info.RecoveredFrom != "scratch" {
			t.Errorf("recovered_from %q, want scratch", info.RecoveredFrom)
		}
		if info.Iter != 8 || len(info.CostHistory) != 8 {
			t.Errorf("recovered run iter=%d history=%d, want 8/8", info.Iter, len(info.CostHistory))
		}
		if got := objectBytes(t, rj); !bytes.Equal(got, want) {
			t.Errorf("recovered object differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("running_pre_checkpoint", func(t *testing.T) {
		// CheckpointEvery beyond the iteration count: the job crashes
		// mid-run with NO checkpoint on disk, so recovery restarts it
		// from scratch — and must still land on the same bytes.
		p := Params{Algorithm: "serial", Iterations: 500, CheckpointEvery: 100_000}
		want := baselineBatch(t, p)
		dir := t.TempDir()

		l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		j, err := l1.svc.Submit(tinyProblem(t), p)
		if err != nil {
			t.Fatal(err)
		}
		id := j.ID()
		waitFor(t, "target mid-run", func() bool { return j.Info(0).Iter >= 2 })
		l1.crash()
		if j.Info(0).Iter >= 500 {
			t.Fatal("job completed before the crash; nothing was interrupted")
		}

		l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		rj, ok := l2.svc.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitFor(t, "recovered job done", func() bool { return rj.State() == Done })
		info := rj.Info(-1)
		if info.RecoveredFrom != "scratch" {
			t.Errorf("recovered_from %q, want scratch (no checkpoint existed)", info.RecoveredFrom)
		}
		if info.Iter != 500 {
			t.Errorf("recovered run iter=%d, want 500", info.Iter)
		}
		if got := objectBytes(t, rj); !bytes.Equal(got, want) {
			t.Errorf("recovered object differs from uninterrupted run")
		}
	})

	t.Run("running_post_checkpoint", func(t *testing.T) {
		p := Params{Algorithm: "serial", Iterations: 500, CheckpointEvery: 4}
		want := baselineBatch(t, p)
		dir := t.TempDir()

		l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		j, err := l1.svc.Submit(tinyProblem(t), p)
		if err != nil {
			t.Fatal(err)
		}
		id := j.ID()
		waitFor(t, "first checkpoint", func() bool { _, ck := j.CheckpointPath(); return ck >= 4 })
		l1.crash()
		if j.Info(0).Iter >= 500 {
			t.Fatal("job completed before the crash; nothing was interrupted")
		}

		l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		rj, ok := l2.svc.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitFor(t, "recovered job done", func() bool { return rj.State() == Done })
		info := rj.Info(-1)
		// The exact checkpoint iteration races with the kill; what must
		// hold is that recovery warm-started from one, not from zero.
		if !strings.HasPrefix(info.RecoveredFrom, "checkpoint@") {
			t.Errorf("recovered_from %q, want checkpoint@k", info.RecoveredFrom)
		}
		if info.Iter != 500 {
			t.Errorf("recovered run iter=%d, want 500", info.Iter)
		}
		if got := objectBytes(t, rj); !bytes.Equal(got, want) {
			t.Errorf("warm-started object differs from uninterrupted run")
		}

		// The durability counters are on /metrics for this restart.
		var sb strings.Builder
		if err := l2.svc.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{
			"ptychoserve_jobs_recovered_total 1",
			"ptychoserve_wal_replay_records",
			"ptychoserve_wal_replay_torn 0",
		} {
			if !strings.Contains(sb.String(), m) {
				t.Errorf("metrics missing %q", m)
			}
		}
	})

	t.Run("streaming_mid_ingest", func(t *testing.T) {
		p := Params{Algorithm: "serial", Iterations: 6, FoldEvery: 1}
		want := baselineStream(t, p)
		dir := t.TempDir()
		prob := tinyProblem(t)
		hdr := dataio.HeaderFromProblem(prob)
		frames := dataio.FramesFromProblem(prob)

		l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		blocker, err := l1.svc.SubmitStreaming(hdr, Params{Algorithm: "serial", Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
		j, err := l1.svc.SubmitStreaming(hdr, p)
		if err != nil {
			t.Fatal(err)
		}
		id := j.ID()
		// All frames land (acknowledged ⇒ spooled and synced), but the
		// producer dies before EOF: the stream is mid-ingest on disk.
		if _, err := l1.svc.AppendFrames(id, frames); err != nil {
			t.Fatal(err)
		}
		l1.crash()

		l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		rj, ok := l2.svc.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		info := rj.Info(0)
		if info.RecoveredFrom != "stream" || info.Frames != len(frames) || info.EOF {
			t.Fatalf("recovered stream: recovered_from=%q frames=%d eof=%v, want stream/%d/false",
				info.RecoveredFrom, info.Frames, info.EOF, len(frames))
		}
		// The reconnecting producer finds its frames survived and only
		// has to close the stream; then release the worker.
		if err := l2.svc.CloseStream(id); err != nil {
			t.Fatal(err)
		}
		if err := l2.svc.Cancel(blocker.ID()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "recovered stream done", func() bool { return rj.State() == Done })
		fin := rj.Info(0)
		if fin.ActiveFrames != len(frames) || !fin.EOF {
			t.Errorf("final stream info: active=%d eof=%v", fin.ActiveFrames, fin.EOF)
		}
		if got := objectBytes(t, rj); !bytes.Equal(got, want) {
			t.Errorf("refolded object differs from uninterrupted run")
		}
	})

	t.Run("done", func(t *testing.T) {
		p := Params{Algorithm: "serial", Iterations: 6, CheckpointEvery: 2}
		dir := t.TempDir()

		l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		j, err := l1.svc.Submit(tinyProblem(t), p)
		if err != nil {
			t.Fatal(err)
		}
		id := j.ID()
		waitFor(t, "job done", func() bool { return j.State() == Done })
		want := objectBytes(t, j)
		wantInfo := j.Info(-1)
		l1.crash()

		l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
		recovered, restored, _, _, _ := l2.svc.RecoveryStats()
		if recovered != 0 || restored != 1 {
			t.Fatalf("recovery stats: recovered=%d restored=%d, want 0/1 (history only)", recovered, restored)
		}
		rj, ok := l2.svc.Get(id)
		if !ok {
			t.Fatalf("job %s not restored", id)
		}
		info := rj.Info(-1)
		if info.State != "done" || info.Iter != wantInfo.Iter || info.Cost != wantInfo.Cost {
			t.Errorf("restored info %s iter=%d cost=%g, want %s/%d/%g",
				info.State, info.Iter, info.Cost, wantInfo.State, wantInfo.Iter, wantInfo.Cost)
		}
		if len(info.CostHistory) != len(wantInfo.CostHistory) {
			t.Errorf("restored history %d entries, want %d", len(info.CostHistory), len(wantInfo.CostHistory))
		}
		// The final object is still servable: restored history keeps no
		// in-memory snapshot, but its checkpoint file survived.
		if got := objectBytes(t, rj); !bytes.Equal(got, want) {
			t.Errorf("restored object differs from pre-crash object")
		}
	})
}

// TestRecoverRetiredDatasetSpoolFails: a state directory whose dataset
// spool is in the retired PTYCHOv1 container recovers the job as a
// visible failure naming the bad magic — the unrecoverable-payload
// path, not a crash and not a silent drop.
func TestRecoverRetiredDatasetSpoolFails(t *testing.T) {
	dir := t.TempDir()
	l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
	prob := tinyProblem(t)
	blocker, err := l1.svc.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
	j, err := l1.svc.Submit(prob, Params{Algorithm: "serial", Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	spool := j.data.path // the path the submit record names
	j.mu.Unlock()
	l1.crash()
	v1, err := os.ReadFile(filepath.Join("..", "dataio", "testdata", "ptycho_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
	if _, _, unrecoverable, _, _ := l2.svc.RecoveryStats(); unrecoverable != 1 {
		t.Fatalf("%d unrecoverable jobs, want the PTYCHOv1 one", unrecoverable)
	}
	rj, ok := l2.svc.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not listed after restart", j.ID())
	}
	if info := rj.Info(0); info.State != Failed.String() || !strings.Contains(info.Error, "bad magic") {
		t.Fatalf("recovered job %s: %q, want failed with a bad-magic error", info.State, info.Error)
	}
}

// TestShutdownCleanReopen is the graceful-stop half of durability: a
// Shutdown-ed service leaves a fully synced WAL, so the next start
// replays pure history — nothing re-enqueued, nothing torn, nothing
// lost.
func TestShutdownCleanReopen(t *testing.T) {
	dir := t.TempDir()
	l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
	j, err := l1.svc.Submit(tinyProblem(t), Params{Algorithm: "serial", Iterations: 4, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j.State() == Done })
	l1.stop() // Shutdown + store close, no fault injected

	l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 4})
	recovered, restored, unrecoverable, records, torn := l2.svc.RecoveryStats()
	if recovered != 0 || unrecoverable != 0 || torn != 0 {
		t.Fatalf("clean reopen did recovery work: recovered=%d unrecoverable=%d torn=%d",
			recovered, unrecoverable, torn)
	}
	if restored != 1 || records == 0 {
		t.Fatalf("clean reopen: restored=%d records=%d, want 1 restored from >0 records", restored, records)
	}
	if l2.svc.QueueDepth() != 0 {
		t.Fatalf("clean reopen re-enqueued %d jobs", l2.svc.QueueDepth())
	}
	// The reopened service is fully live: new work runs alongside the
	// restored history.
	j2, err := l2.svc.Submit(tinyProblem(t), Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-reopen job done", func() bool { return j2.State() == Done })
}

// TestRecoveryPreservesTenantAndClass: the WAL submit record carries
// the scheduling identity, so a crashed queued job re-enqueues as the
// same tenant's work in the same priority class — an interactive job
// that was next in line before the crash is next in line after, and
// the restarted tenant ledger charges the right principal.
func TestRecoveryPreservesTenantAndClass(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, Sched: sched.Config{Policy: "wfq"}}

	l1 := openLife(t, dir, cfg)
	prob := tinyProblem(t)
	blocker, err := l1.svc.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
	// Two queued jobs: a bulk one submitted FIRST, then an interactive
	// one. WFQ dispatches the interactive lane first; recovery must
	// preserve that order, not fall back to arrival order.
	bulk, err := l1.svc.Submit(prob, Params{Algorithm: "serial", Iterations: 4, Tenant: "batchfarm"})
	if err != nil {
		t.Fatal(err)
	}
	vip, err := l1.svc.Submit(prob, Params{Algorithm: "serial", Iterations: 4, Tenant: "vip", Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	l1.crash()

	l2 := openLife(t, dir, cfg)
	rvip, ok := l2.svc.Get(vip.ID())
	if !ok {
		t.Fatalf("interactive job %s not recovered", vip.ID())
	}
	rbulk, ok := l2.svc.Get(bulk.ID())
	if !ok {
		t.Fatalf("bulk job %s not recovered", bulk.ID())
	}
	vinfo, binfo := rvip.Info(0), rbulk.Info(0)
	if vinfo.Tenant != "vip" || vinfo.Priority != "interactive" {
		t.Errorf("recovered interactive job is tenant=%q priority=%q, want vip/interactive",
			vinfo.Tenant, vinfo.Priority)
	}
	if binfo.Tenant != "batchfarm" || binfo.Priority != "bulk" {
		t.Errorf("recovered bulk job is tenant=%q priority=%q, want batchfarm/bulk",
			binfo.Tenant, binfo.Priority)
	}
	if err := l2.svc.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovered jobs done", func() bool {
		return rvip.State() == Done && rbulk.State() == Done
	})
	if !rvip.Info(0).Started.Before(rbulk.Info(0).Started) {
		t.Errorf("recovered bulk job dispatched before the interactive one — class lost in replay")
	}
	// The restarted ledger accounts the recovered work to its tenants.
	var haveVip, haveBatch bool
	for _, ten := range l2.svc.Status().Tenants {
		switch ten.Name {
		case "vip":
			haveVip = true
		case "batchfarm":
			haveBatch = true
		}
	}
	if !haveVip || !haveBatch {
		t.Errorf("restarted tenant rollup lacks recovered principals (vip=%v batchfarm=%v)", haveVip, haveBatch)
	}
}

// TestParamsVersionTolerance pins the PTYWALv2 addendum both ways:
// records written before the scheduler existed (no tenant/priority
// keys) read back as anonymous bulk work, and an anonymous bulk
// submission still writes those keys as absent — the addendum does not
// fork the format for unkeyed traffic.
func TestParamsVersionTolerance(t *testing.T) {
	old := []byte(`{"algorithm":"serial","iterations":4,"step_size":0.01}`)
	p, err := unmarshalParams(old)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tenant != AnonymousTenant || p.Priority != "bulk" {
		t.Errorf("pre-sched record reads tenant=%q priority=%q, want anonymous/bulk", p.Tenant, p.Priority)
	}

	raw := marshalParams(Params{Algorithm: "serial", Iterations: 4, Tenant: AnonymousTenant, Priority: "bulk"})
	if strings.Contains(string(raw), "tenant") || strings.Contains(string(raw), "priority") {
		t.Errorf("anonymous bulk record carries scheduler keys: %s", raw)
	}
	keyed := marshalParams(Params{Algorithm: "serial", Iterations: 4, Tenant: "vip", Priority: "interactive"})
	rt, err := unmarshalParams(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tenant != "vip" || rt.Priority != "interactive" {
		t.Errorf("keyed record round-trips as tenant=%q priority=%q", rt.Tenant, rt.Priority)
	}
}

// TestIdempotencyAfterCrash: a claimed idempotency key holds across a
// crash — racing retries of the original submission against the
// restarted service all land on the original job, and none enqueues.
func TestIdempotencyAfterCrash(t *testing.T) {
	const key = "beamline-acq-42"
	dir := t.TempDir()

	l1 := openLife(t, dir, Config{Workers: 1, QueueDepth: 8})
	j, created, err := l1.svc.SubmitWithKey(tinyProblem(t), Params{Algorithm: "serial", Iterations: 4, CheckpointEvery: 2}, key)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	id := j.ID()
	waitFor(t, "job done", func() bool { return j.State() == Done })
	l1.crash()

	l2 := openLife(t, dir, Config{Workers: 1, QueueDepth: 8})
	prob := tinyProblem(t)
	const racers = 8
	var wg sync.WaitGroup
	ids := make(chan string, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rj, created, err := l2.svc.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 4}, key)
			if err != nil {
				t.Errorf("replayed submit: %v", err)
				return
			}
			if created {
				t.Error("replayed submit claims a fresh enqueue")
			}
			ids <- rj.ID()
		}()
	}
	wg.Wait()
	close(ids)
	for got := range ids {
		if got != id {
			t.Fatalf("replayed submit returned %s, want original %s", got, id)
		}
	}
	if n := len(allJobs(t, l2.svc)); n != 1 {
		t.Fatalf("registry holds %d jobs after replayed retries, want 1", n)
	}
	// A different key is a different acquisition: it enqueues.
	j2, created, err := l2.svc.SubmitWithKey(prob, Params{Algorithm: "serial", Iterations: 2}, key+"-next")
	if err != nil || !created {
		t.Fatalf("fresh key: created=%v err=%v", created, err)
	}
	waitFor(t, "fresh-key job done", func() bool { return j2.State() == Done })
}
