package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs/store/faultfs"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

func sampleProblem(t testing.TB) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 3, Rows: 3, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 7)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func openTestWAL(t testing.TB, dir string, fs faultfs.FS) *WAL {
	t.Helper()
	w, err := OpenWAL(WALConfig{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// logLifecycle writes one complete batch-job lifecycle and returns the
// finished record's expectations.
func logLifecycle(t testing.TB, w *WAL, id, key string) {
	t.Helper()
	created := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.LogSubmit(SubmitRecord{
		ID: id, Params: json.RawMessage(`{"iterations":5}`), Key: key,
		Dataset: filepath.Join(w.dir, id+".ptycho"), Created: created,
	}))
	must(w.LogStart(id, created.Add(time.Second)))
	must(w.LogIteration(id, 1, 0.9))
	must(w.LogIteration(id, 2, 0.5))
	must(w.LogCheckpoint(id, filepath.Join(w.dir, id+".objck"), 2))
	must(w.LogIteration(id, 3, 0.25))
	must(w.LogFinish(id, "done", "", created.Add(time.Minute)))
}

func findJob(t testing.TB, rec *Recovery, id string) *JobRecord {
	t.Helper()
	for i := range rec.Jobs {
		if rec.Jobs[i].ID == id {
			return &rec.Jobs[i]
		}
	}
	t.Fatalf("job %s not recovered (have %d jobs)", id, len(rec.Jobs))
	return nil
}

// TestWALLifecycleRoundtrip: a full lifecycle survives close + reopen
// with every field merged to its latest state.
func TestWALLifecycleRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	logLifecycle(t, w, "job-0001", "key-a")
	if err := w.LogSubmit(SubmitRecord{ID: "job-0002", Streaming: true, Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogFrames("job-0002", 9); err != nil {
		t.Fatal(err)
	}
	if err := w.LogEOF("job-0002"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	rec, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != 0 {
		t.Fatalf("clean reopen reported %d torn records", rec.Torn)
	}
	if rec.Records != 10 {
		t.Fatalf("replayed %d records, want 10", rec.Records)
	}
	j := findJob(t, rec, "job-0001")
	if !j.Terminal() || j.State != "done" {
		t.Fatalf("state = %q, want done", j.State)
	}
	if j.Iter != 3 || j.Cost != 0.25 {
		t.Fatalf("progress = %d @ %g, want 3 @ 0.25", j.Iter, j.Cost)
	}
	if want := []float64{0.9, 0.5, 0.25}; len(j.CostHistory) != 3 ||
		j.CostHistory[0] != want[0] || j.CostHistory[1] != want[1] || j.CostHistory[2] != want[2] {
		t.Fatalf("history = %v, want %v", j.CostHistory, want)
	}
	if j.CheckpointIter != 2 || j.CheckpointPath == "" {
		t.Fatalf("checkpoint = %q @ %d, want path @ 2", j.CheckpointPath, j.CheckpointIter)
	}
	if rec.Keys["key-a"] != "job-0001" {
		t.Fatalf("idempotency key not recovered: %v", rec.Keys)
	}
	s := findJob(t, rec, "job-0002")
	if !s.Streaming || s.Frames != 9 || !s.EOF || s.State != "queued" {
		t.Fatalf("stream job: %+v", s)
	}
	// Jobs come back in ID order for deterministic re-enqueue.
	if rec.Jobs[0].ID != "job-0001" || rec.Jobs[1].ID != "job-0002" {
		t.Fatalf("order: %s, %s", rec.Jobs[0].ID, rec.Jobs[1].ID)
	}
}

// TestWALSpoolRoundtrip: datasets, warm-start objects and stream
// journals survive the spool + load cycle.
func TestWALSpoolRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	defer w.Close()
	prob := sampleProblem(t)

	path, err := w.SpoolDataset("job-0001", prob)
	if err != nil {
		t.Fatal(err)
	}
	f, err := w.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataio.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern.N() != prob.Pattern.N() || got.WindowN != prob.WindowN {
		t.Fatalf("dataset mismatch: %d locs, window %d", got.Pattern.N(), got.WindowN)
	}

	objPath, err := w.SpoolInitObject("job-0001", phantom.RandomObject(8, 8, 2, 3).Slices)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := w.LoadObject(objPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != 2 {
		t.Fatalf("init object slices = %d, want 2", len(obj))
	}
	if p, err := w.SpoolInitObject("job-0002", nil); p != "" || err != nil {
		t.Fatalf("nil init object should spool to nothing, got %q, %v", p, err)
	}

	hdr := dataio.HeaderFromProblem(prob)
	spool, err := w.SpoolStreamOpen("job-0003", hdr)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]dataio.Frame, prob.Pattern.N())
	for i := range frames {
		frames[i] = dataio.Frame{Loc: prob.Pattern.Locations[i], Meas: prob.Meas[i]}
	}
	if err := w.SpoolFrames("job-0003", hdr.WindowN, frames[:4]); err != nil {
		t.Fatal(err)
	}
	if err := w.SpoolFrames("job-0003", hdr.WindowN, frames[4:]); err != nil {
		t.Fatal(err)
	}
	if err := w.SpoolStreamEOF("job-0003"); err != nil {
		t.Fatal(err)
	}
	ghdr, gframes, eof, err := w.LoadStream(spool)
	if err != nil {
		t.Fatal(err)
	}
	if ghdr.WindowN != hdr.WindowN || len(gframes) != len(frames) || !eof {
		t.Fatalf("stream replay: window %d, %d frames, eof %v", ghdr.WindowN, len(gframes), eof)
	}
	for i := range frames {
		if gframes[i].Loc != frames[i].Loc || gframes[i].Meas.MaxDiff(frames[i].Meas) != 0 {
			t.Fatalf("frame %d differs after replay", i)
		}
	}
}

// TestWALCompaction: crossing the record budget folds state into the
// snapshot, resets the log, and reopen sees identical state.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(WALConfig{Dir: dir, CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	logLifecycle(t, w, "job-0001", "key-a") // 7 records → one compaction
	st := w.Stats()
	if st.Compactions < 1 {
		t.Fatalf("compactions = %d, want ≥ 1", st.Compactions)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.snap")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if st.WALBytes >= 200 {
		t.Fatalf("WAL not reset by compaction: %d bytes", st.WALBytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	rec, _ := w2.Recover()
	j := findJob(t, rec, "job-0001")
	if j.State != "done" || j.Iter != 3 || len(j.CostHistory) != 3 {
		t.Fatalf("post-compaction recovery: %+v", j)
	}
	if rec.Keys["key-a"] != "job-0001" {
		t.Fatal("idempotency key lost in compaction")
	}
}

// TestWALDoubleApplyAcrossCompaction models the compaction crash
// window: the snapshot has been renamed into place but the log was not
// yet reset, so replay applies every record twice. State must come out
// identical — records are absolute and history is deduped.
func TestWALDoubleApplyAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	logLifecycle(t, w, "job-0001", "key-a")
	walCopy, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Force the compaction, then restore the pre-compaction log: the
	// exact on-disk state of a crash between snapshot rename and log
	// reset.
	w.mu.Lock()
	if err := w.compactLocked(); err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	w.mu.Unlock()
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), walCopy, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	rec, _ := w2.Recover()
	j := findJob(t, rec, "job-0001")
	if j.State != "done" || j.Iter != 3 {
		t.Fatalf("double-apply state: %+v", j)
	}
	if len(j.CostHistory) != 3 {
		t.Fatalf("double-apply duplicated history: %v", j.CostHistory)
	}
	if len(rec.Jobs) != 1 {
		t.Fatalf("double-apply duplicated jobs: %d", len(rec.Jobs))
	}
}

// TestWALTornTailTruncated: garbage after the last intact record is
// reported, dropped, and physically truncated so the next incarnation
// reopens clean.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	logLifecycle(t, w, "job-0001", "key-a")
	w.Close()

	walPath := filepath.Join(dir, "jobs.wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{'J', 0xFF, 0xEE}) // a record that never finished
	f.Close()

	w2 := openTestWAL(t, dir, nil)
	rec, _ := w2.Recover()
	if rec.Torn != 1 {
		t.Fatalf("torn = %d, want 1", rec.Torn)
	}
	j := findJob(t, rec, "job-0001")
	if j.State != "done" {
		t.Fatalf("torn tail corrupted earlier state: %+v", j)
	}
	// The torn bytes are gone from disk and appends continue cleanly.
	if err := w2.LogSubmit(SubmitRecord{ID: "job-0002", Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	w3 := openTestWAL(t, dir, nil)
	defer w3.Close()
	rec3, _ := w3.Recover()
	if rec3.Torn != 0 {
		t.Fatalf("third open still torn: %d", rec3.Torn)
	}
	findJob(t, rec3, "job-0002")
}

// TestWALCrashMidAppend uses the fault injector to tear a synced append
// exactly as a crash would, then reopens with a clean FS: everything
// acknowledged before the kill is recovered, the torn record is not.
func TestWALCrashMidAppend(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.Wrap(faultfs.OS{})
	w := openTestWAL(t, dir, fault)
	logLifecycle(t, w, "job-0001", "key-a")

	fault.KillAfterBytes(10) // the next record tears mid-frame
	err := w.LogSubmit(SubmitRecord{ID: "job-0002", Key: "key-b", Created: time.Now().UTC()})
	if !errors.Is(err, faultfs.ErrKilled) {
		t.Fatalf("append after kill: err = %v, want ErrKilled", err)
	}
	w.Close() // releases handles; the directory is frozen

	w2 := openTestWAL(t, dir, nil)
	defer w2.Close()
	rec, _ := w2.Recover()
	if rec.Torn != 1 {
		t.Fatalf("torn = %d, want 1", rec.Torn)
	}
	j := findJob(t, rec, "job-0001")
	if j.State != "done" || j.Iter != 3 {
		t.Fatalf("acknowledged records lost: %+v", j)
	}
	if _, ok := rec.Keys["key-b"]; ok {
		t.Fatal("unacknowledged submission resurrected")
	}
	if len(rec.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(rec.Jobs))
	}
}

// TestWALSyncFailureSurfaces: a failing fsync must surface on the
// synced append paths — the service treats it as a submission error.
func TestWALSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.Wrap(faultfs.OS{})
	w := openTestWAL(t, dir, fault)
	defer w.Close()
	fault.FailSync(true)
	if err := w.LogSubmit(SubmitRecord{ID: "job-0001", Created: time.Now().UTC()}); !errors.Is(err, faultfs.ErrSyncFailed) {
		t.Fatalf("LogSubmit under sync failure: %v, want ErrSyncFailed", err)
	}
	// Unsynced appends do not care.
	if err := w.LogIteration("job-0001", 1, 0.5); err != nil {
		t.Fatalf("LogIteration under sync failure: %v", err)
	}
	fault.FailSync(false)
}

// TestWALForeignFileRefused: a state file with the wrong magic is a
// configuration error, not a torn tail.
func TestWALForeignFileRefused(t *testing.T) {
	// A PTYWALv1 log or PTYSNPv1 snapshot is as foreign as any other
	// file: the store refuses to open, and leaves the file as it found it.
	legacySnap := append([]byte("PTYSNPv1"), legacyWAL(t)[8:]...)
	for _, tc := range []struct {
		file    string
		content []byte
	}{
		{"jobs.wal", []byte("OBJCKv1\x00 definitely not a WAL")},
		{"jobs.wal", legacyWAL(t)},
		{"jobs.snap", legacySnap},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWAL(WALConfig{Dir: dir}); !errors.Is(err, ErrNotWAL) {
			t.Fatalf("%s = %q…: err = %v, want ErrNotWAL", tc.file, tc.content[:8], err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, tc.content) {
			t.Fatalf("%s was modified by the refused open (%v)", tc.file, err)
		}
	}
}

// TestWALPrefixReplayProperty is the satellite property test: replaying
// ANY byte prefix of a recorded WAL yields a valid state — no error, no
// panic, jobs a consistent subset of the full replay. This is exactly
// the guarantee crash recovery rests on: a crash can cut the log at any
// byte, and every cut must replay to a state the service can serve.
func TestWALPrefixReplayProperty(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, nil)
	logLifecycle(t, w, "job-0001", "key-a")
	if err := w.LogSubmit(SubmitRecord{ID: "job-0002", Key: "key-b", Streaming: true, Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := w.LogFrames("job-0002", 4); err != nil {
		t.Fatal(err)
	}
	if err := w.LogEOF("job-0002"); err != nil {
		t.Fatal(err)
	}
	// A tenant-keyed interactive submission (PTYWALv2 sched addendum):
	// the params payload is opaque to the store, and every prefix that
	// contains the record must return it byte-for-byte — scheduling
	// identity survives any crash cut.
	schedParams := json.RawMessage(`{"iterations":7,"tenant":"vip","priority":"interactive"}`)
	if err := w.LogSubmit(SubmitRecord{ID: "job-0003", Key: "key-c", Params: schedParams, Created: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := ReplayWAL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	fullJobs := make(map[string]JobRecord)
	for _, j := range full.Jobs {
		fullJobs[j.ID] = j
	}
	valid := map[string]bool{"queued": true, "running": true, "done": true, "failed": true, "cancelled": true}

	for cut := 0; cut <= len(data); cut++ {
		rec, _, err := ReplayWAL(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("prefix %d: %v", cut, err)
		}
		for _, j := range rec.Jobs {
			fj, ok := fullJobs[j.ID]
			if !ok {
				t.Fatalf("prefix %d invented job %s", cut, j.ID)
			}
			if !valid[j.State] {
				t.Fatalf("prefix %d: job %s in invalid state %q", cut, j.ID, j.State)
			}
			if j.Iter > fj.Iter || j.Frames > fj.Frames {
				t.Fatalf("prefix %d: job %s ahead of full replay", cut, j.ID)
			}
			if j.ID == "job-0003" && !bytes.Equal(j.Params, schedParams) {
				t.Fatalf("prefix %d: job %s params %s, want the submitted sched payload", cut, j.ID, j.Params)
			}
			if len(j.CostHistory) > 0 && j.CostHistory[len(j.CostHistory)-1] != j.Cost && j.Iter > 0 {
				// History tail tracks latest cost once iterations exist.
				t.Fatalf("prefix %d: job %s history tail %g != cost %g",
					cut, j.ID, j.CostHistory[len(j.CostHistory)-1], j.Cost)
			}
		}
		for key, id := range rec.Keys {
			if full.Keys[key] != id {
				t.Fatalf("prefix %d: key %q→%s not in full replay", cut, key, id)
			}
		}
		// A prefix can only tear the final record.
		if rec.Torn > 1 {
			t.Fatalf("prefix %d: torn = %d", cut, rec.Torn)
		}
	}
}
