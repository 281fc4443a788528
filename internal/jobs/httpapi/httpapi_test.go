package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// testProblem builds a dataset big enough that one reconstruction
// iteration takes measurable wall-clock time, so the e2e test can
// reliably observe and cancel a running job.
func testProblem(t *testing.T) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 6, Rows: 6, StepPix: 6, RadiusPix: 8, MarginPix: 18})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1)
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Service) {
	t.Helper()
	svc, err := jobs.NewService(jobs.Config{
		Workers: 2, QueueDepth: 8, SpoolDir: t.TempDir(), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		for _, info := range allJobs(t, svc) {
			if info.State == "queued" || info.State == "running" {
				svc.Cancel(info.ID)
			}
		}
		svc.Close()
	})
	return ts, svc
}

// allJobs is the whole registry, through the one listing the service has.
func allJobs(t *testing.T, svc *jobs.Service) []jobs.Info {
	t.Helper()
	infos, _, err := svc.ListPage(jobs.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return infos
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body io.Reader, v any) int {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if v != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s (%s): %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndCancelResume drives the acceptance scenario over HTTP:
// submit a dataset upload, observe monotone iteration progress, cancel
// mid-run, resume from the written OBJCKv1 checkpoint, and verify the
// final object matches an uninterrupted run to machine precision.
func TestEndToEndCancelResume(t *testing.T) {
	prob := testProblem(t)
	ts, _ := newTestServer(t)

	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	const total = 200
	const step = 0.01

	var info jobs.Info
	params := fmt.Sprintf(`{"algorithm":"serial","iterations":%d,"step_size":%g,"checkpoint_every":2}`, total, step)
	if resp := postSubmit(t, ts.URL+"/v1/jobs", params, upload.Bytes(), &info); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if info.State != "queued" && info.State != "running" {
		t.Fatalf("submitted job state %q", info.State)
	}
	jobURL := ts.URL + "/v1/jobs/" + info.ID

	// Poll until mid-run, asserting the iteration counter is monotone.
	last := -1
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no mid-run progress (last iter %d)", last)
		}
		var cur jobs.Info
		if st := getJSON(t, jobURL, &cur); st != http.StatusOK {
			t.Fatalf("status poll: %d", st)
		}
		if cur.Iter < last {
			t.Fatalf("iteration went backwards: %d after %d", cur.Iter, last)
		}
		last = cur.Iter
		if cur.State == "done" || cur.State == "failed" {
			t.Fatalf("job reached %q before the test could cancel (iter %d)", cur.State, cur.Iter)
		}
		if cur.Iter >= 6 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// A live preview must be available once the first checkpoint exists.
	resp, err := http.Get(jobURL + "/preview.png")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preview: status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatalf("preview is not a PNG: %v", err)
	}
	resp.Body.Close()

	// Cancel mid-run and wait for the final checkpoint.
	if st := postJSON(t, jobURL+"/cancel", nil, nil); st != http.StatusOK {
		t.Fatalf("cancel: status %d", st)
	}
	var cancelled jobs.Info
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never reached cancelled")
		}
		getJSON(t, jobURL, &cancelled)
		if cancelled.State == "cancelled" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cancelled.Iter <= 0 || cancelled.Iter >= total {
		t.Fatalf("cancelled at iteration %d, want mid-run", cancelled.Iter)
	}
	if cancelled.CheckpointIter != cancelled.Iter {
		t.Fatalf("checkpoint at %d, progress at %d", cancelled.CheckpointIter, cancelled.Iter)
	}

	// Resume: a new job warm-starts from the checkpoint and finishes the
	// remaining iterations.
	var resumed jobs.Info
	if st := postJSON(t, jobURL+"/resume", nil, &resumed); st != http.StatusAccepted {
		t.Fatalf("resume: status %d", st)
	}
	if resumed.ResumedFrom != info.ID {
		t.Fatalf("resumed_from %q, want %q", resumed.ResumedFrom, info.ID)
	}
	resumedURL := ts.URL + "/v1/jobs/" + resumed.ID
	for {
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		var cur jobs.Info
		getJSON(t, resumedURL, &cur)
		if cur.State == "done" {
			resumed = cur
			break
		}
		if cur.State == "failed" || cur.State == "cancelled" {
			t.Fatalf("resumed job %s: %s", cur.State, cur.Error)
		}
		time.Sleep(time.Millisecond)
	}
	if resumed.Iter != total || resumed.TotalIters != total {
		t.Fatalf("resumed finished at %d/%d, want %d/%d", resumed.Iter, resumed.TotalIters, total, total)
	}

	// Download the final object and compare with an uninterrupted run.
	resp, err = http.Get(resumedURL + "/object")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object download: status %d", resp.StatusCode)
	}
	final, err := dataio.ReadObject(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.Reconstruct(prob, phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices,
		solver.Options{StepSize: step, Iterations: total, Mode: solver.Batch})
	if err != nil {
		t.Fatal(err)
	}
	for si, ss := range final {
		for i, v := range ss.Data {
			if v != ref.Slices[si].Data[i] {
				t.Fatalf("slice %d pixel %d: resumed %v != uninterrupted %v",
					si, i, v, ref.Slices[si].Data[i])
			}
		}
	}

	// The metrics endpoint reflects the lifecycle.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ptychoserve_jobs_submitted_total 2",
		"ptychoserve_jobs_cancelled_total 1",
		"ptychoserve_jobs_completed_total 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestHTTPValidation covers the API's error paths.
func TestHTTPValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	prob := testProblem(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}

	// Unknown job is a 404 everywhere.
	for _, url := range []string{"/v1/jobs/job-9999", "/v1/jobs/job-9999/preview.png", "/v1/jobs/job-9999/object"} {
		if st := getJSON(t, ts.URL+url, nil); st != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, st)
		}
	}
	if st := postJSON(t, ts.URL+"/v1/jobs/job-9999/cancel", nil, nil); st != http.StatusNotFound {
		t.Errorf("cancel unknown: status %d, want 404", st)
	}
	// The 400 table: a garbage dataset, parameters that do not parse, and
	// parameters that parse fine but fail validation are all client
	// errors, never 500s.
	for _, tc := range []struct {
		name, params string
		dataset      []byte
	}{
		{"garbage upload", `{"algorithm":"serial"}`, []byte("not a dataset")},
		{"iterations not a number", `{"iterations":"abc"}`, upload.Bytes()},
		{"mesh not a number", `{"mesh_rows":"2by2"}`, upload.Bytes()},
		{"unknown algorithm", `{"algorithm":"foo"}`, upload.Bytes()},
		{"negative iterations", `{"iterations":-5}`, upload.Bytes()},
	} {
		if resp := postSubmit(t, ts.URL+"/v1/jobs", tc.params, tc.dataset, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// A healthy server says so.
	if st := getJSON(t, ts.URL+"/healthz", nil); st != http.StatusOK {
		t.Errorf("healthz: status %d", st)
	}

	// A real submission with a gd mesh runs to completion.
	var info jobs.Info
	if resp := postSubmit(t, ts.URL+"/v1/jobs", `{"algorithm":"gd","iterations":3,"mesh_rows":2,"mesh_cols":2}`, upload.Bytes(), &info); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gd submit: status %d", resp.StatusCode)
	}
	pollInfo(t, ts.URL+"/v1/jobs/"+info.ID, "gd job done", func(i jobs.Info) bool { return i.State == "done" })
	// The list shows that one job: the rejected submissions never got
	// registered.
	var page client.JobPage
	if st := getJSON(t, ts.URL+"/v1/jobs", &page); st != http.StatusOK || len(page.Jobs) != 1 {
		t.Errorf("list: status %d with %d jobs, want 200 with 1", st, len(page.Jobs))
	}
}
