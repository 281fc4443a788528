package httpapi

// Wire-level crash recovery: the durable pieces of the /v1 surface —
// Idempotency-Key claims, job identity, the recovered_from marker and
// the /object endpoint — must hold across a server restart on the same
// state directory.

import (
	"bytes"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/jobs/store/faultfs"
)

// durableServer builds one lifetime of the full stack — fault-injected
// filesystem, WAL store, service, HTTP server — on dir. crash() kills
// the filesystem first (synced records stay, every later write fails —
// process death, not graceful drain) and then tears the in-process
// half down.
func durableServer(t *testing.T, dir string) (ts *httptestServer, svc *jobs.Service, crash func()) {
	t.Helper()
	fault := faultfs.Wrap(faultfs.OS{})
	st, err := store.OpenWAL(store.WALConfig{Dir: dir, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	svc, err = jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 8, Store: st,
		SpoolDir: filepath.Join(dir, "checkpoints"), CheckpointEvery: 2,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	server := newHTTPTestServer(t, svc)
	stopped := false
	teardown := func() {
		if stopped {
			return
		}
		stopped = true
		server.Close()
		svc.Shutdown()
		st.Close()
	}
	t.Cleanup(teardown)
	crash = func() {
		fault.Kill()
		teardown()
	}
	return &httptestServer{server.URL}, svc, crash
}

// httptestServer pins just the URL so a crashed lifetime cannot be
// accidentally reused.
type httptestServer struct{ URL string }

func postIdempotent(t *testing.T, url, key string, body io.Reader, ct string) (jobs.Info, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, raw)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, resp.Header.Get("Idempotency-Replayed") == "true"
}

// TestV1IdempotencyAcrossRestart drives the crash-retry scenario a
// real producer hits: it submits with an Idempotency-Key, the server
// dies mid-run, and the producer's retry against the restarted server
// must replay the ORIGINAL job — now recovered and finishing — instead
// of enqueueing a duplicate reconstruction.
func TestV1IdempotencyAcrossRestart(t *testing.T) {
	prob := testProblem(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const key = "acq-2026-08-08-a"

	ts1, _, crash1 := durableServer(t, dir)
	body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":300}`, upload.Bytes())
	first, replayed := postIdempotent(t, ts1.URL+"/v1/jobs", key, body, ct)
	if replayed {
		t.Fatal("first submission marked as a replay")
	}
	pollInfo(t, ts1.URL+"/v1/jobs/"+first.ID, "job running", func(i jobs.Info) bool { return i.State == "running" })
	// Crash mid-run: the synced WAL records (submit + key claim +
	// checkpoints) are on disk; the run itself is interrupted.
	crash1()

	ts2, svc2, _ := durableServer(t, dir)
	// Retry of the same submission: same key, same 202, same job ID,
	// flagged as a replay — and the job object now carries the
	// recovery marker.
	body, ct = multipartSubmit(t, `{"algorithm":"serial","iterations":300}`, upload.Bytes())
	second, replayed := postIdempotent(t, ts2.URL+"/v1/jobs", key, body, ct)
	if !replayed {
		t.Error("post-restart retry not marked Idempotency-Replayed")
	}
	if second.ID != first.ID {
		t.Fatalf("post-restart retry enqueued %s, want original %s", second.ID, first.ID)
	}
	if second.RecoveredFrom == "" {
		t.Error("recovered job missing recovered_from on the wire")
	}
	if n := len(allJobs(t, svc2)); n != 1 {
		t.Fatalf("registry holds %d jobs after the retry, want 1", n)
	}

	fin := pollInfo(t, ts2.URL+"/v1/jobs/"+first.ID, "recovered job done", func(i jobs.Info) bool { return i.State == "done" })
	if fin.Iter != 300 {
		t.Errorf("recovered job finished at iter %d, want 300", fin.Iter)
	}
	// The finished object is servable from the recovered lifetime.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + first.ID + "/object")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /object after recovery: status %d", resp.StatusCode)
	}
	if _, err := dataio.ReadObject(resp.Body); err != nil {
		t.Fatalf("decoding recovered object: %v", err)
	}
}

// TestObjectOfRecoveredJobWithDamagedCheckpoint: a job recovered from
// the state directory serves /object from its checkpoint file. When the
// log says a checkpoint was written and the file no longer reads back,
// that is a server fault naming the checkpoint — not the "no snapshot
// yet" a job before its first checkpoint answers.
func TestObjectOfRecoveredJobWithDamagedCheckpoint(t *testing.T) {
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ts1, _, crash1 := durableServer(t, dir)
	var job jobs.Info
	if resp := postSubmit(t, ts1.URL+"/v1/jobs", `{"algorithm":"serial","iterations":4}`, upload.Bytes(), &job); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job = pollInfo(t, ts1.URL+"/v1/jobs/"+job.ID, "job done", func(i jobs.Info) bool { return i.State == "done" })
	crash1()

	getObject := func(base string) *http.Response {
		resp, err := http.Get(base + "/v1/jobs/" + job.ID + "/object")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ts2, _, crash2 := durableServer(t, dir)
	resp := getObject(ts2.URL)
	if _, err := dataio.ReadObject(resp.Body); err != nil || resp.Header.Get("X-Ptycho-Iterations") != "4" {
		t.Fatalf("intact checkpoint of the recovered job: status %d, iterations %q, %v",
			resp.StatusCode, resp.Header.Get("X-Ptycho-Iterations"), err)
	}
	resp.Body.Close()
	crash2()

	if err := os.Truncate(job.Checkpoint, 40); err != nil {
		t.Fatal(err)
	}
	ts3, _, _ := durableServer(t, dir)
	resp = getObject(ts3.URL)
	p := decodeProblem(t, resp)
	if resp.StatusCode != http.StatusInternalServerError || p.Code != client.CodeInternal {
		t.Fatalf("truncated checkpoint: %d/%s, want 500/%s", resp.StatusCode, p.Code, client.CodeInternal)
	}
	if !strings.Contains(p.Detail, "iteration-4 checkpoint") || !strings.Contains(p.Detail, io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("detail %q names neither the checkpoint iteration nor the read error", p.Detail)
	}
}

// TestRestoredDoneJobServesPreviewAndObject: a finished job's preview
// and object come from its final checkpoint file, so a Done job
// restored from the WAL after a restart answers both endpoints — the
// object with the checkpoint file's exact bytes and iteration.
func TestRestoredDoneJobServesPreviewAndObject(t *testing.T) {
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ts1, _, crash1 := durableServer(t, dir)
	var job jobs.Info
	if resp := postSubmit(t, ts1.URL+"/v1/jobs", `{"algorithm":"serial","iterations":4}`, upload.Bytes(), &job); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job = pollInfo(t, ts1.URL+"/v1/jobs/"+job.ID, "job done", func(i jobs.Info) bool { return i.State == "done" })
	crash1()

	ts2, _, _ := durableServer(t, dir)
	get := func(endpoint string) (*http.Response, []byte) {
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + job.ID + endpoint)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/preview.png")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("GET /preview.png of the restored job: status %d, type %q (%s)",
			resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if _, err := png.Decode(bytes.NewReader(body)); err != nil {
		t.Fatalf("preview of the restored job is not a PNG: %v", err)
	}

	resp, body = get("/object")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /object of the restored job: status %d (%s)", resp.StatusCode, body)
	}
	if job.CheckpointIter != 4 || resp.Header.Get("X-Ptycho-Iterations") != strconv.Itoa(job.CheckpointIter) {
		t.Fatalf("object at iteration %q, checkpoint at %d, want both 4",
			resp.Header.Get("X-Ptycho-Iterations"), job.CheckpointIter)
	}
	file, err := os.ReadFile(job.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || !bytes.Equal(body, file) {
		t.Fatalf("served object (%d bytes) differs from the checkpoint file (%d bytes)", len(body), len(file))
	}
}
