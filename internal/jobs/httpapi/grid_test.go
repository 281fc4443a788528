package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/gridworker"
	"ptychopath/internal/jobs"
)

// TestGridEndpointAndSubmit exercises the distributed path end to end
// over HTTP: GET /v1/grid reports the registered workers, a submission
// with "grid": true runs the reconstruction across them, and the job
// completes with the same observable lifecycle as a local one.
func TestGridEndpointAndSubmit(t *testing.T) {
	svc, err := jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 4, SpoolDir: t.TempDir(), CheckpointEvery: 2,
		GridAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	// No workers yet: /v1/grid reports an enabled, empty pool.
	var grid client.GridStatus
	getJSON(t, ts.URL+"/v1/grid", &grid)
	if !grid.Enabled || grid.Addr == "" || len(grid.Workers) != 0 {
		t.Fatalf("empty grid: %+v", grid)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 4; i++ {
		go gridworker.Run(ctx, svc.GridAddr(), gridworker.Options{Name: fmt.Sprintf("w%d", i)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/grid", &grid)
		if grid.Idle == 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if grid.Idle != 4 {
		t.Fatalf("grid never reached 4 idle workers: %+v", grid)
	}

	var buf bytes.Buffer
	if err := dataio.Write(&buf, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	resp := postSubmit(t, ts.URL+"/v1/jobs",
		`{"algorithm":"gd","grid":true,"iterations":4,"mesh_rows":2,"mesh_cols":2,"checkpoint_every":2}`, buf.Bytes(), &info)
	if resp.StatusCode != http.StatusAccepted || !info.Grid {
		t.Fatalf("submit: status %d, info %+v", resp.StatusCode, info)
	}

	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && info.State != "done" && info.State != "failed" {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+info.ID, &info)
	}
	if info.State != "done" {
		t.Fatalf("grid job ended %q (error %q)", info.State, info.Error)
	}
	if info.Iter != 4 {
		t.Fatalf("grid job iter %d, want 4", info.Iter)
	}

	// The hub's routing shows up in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics bytes.Buffer
	metrics.ReadFrom(mresp.Body)
	for _, want := range []string{"ptychoserve_grid_workers 4", "ptychoserve_grid_sessions_total 1"} {
		if !bytes.Contains(metrics.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics.String())
		}
	}
}
