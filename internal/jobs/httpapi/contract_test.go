package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/jobs"
	"ptychopath/internal/obs"
	"ptychopath/internal/obs/flight"
	"ptychopath/internal/wire/wiretest"
)

// TestV1ContractGolden pins the bytes of every /v1 success body. The
// fixtures were recorded when httpapi still copied the service's
// structs field by field onto their client twins, so a byte-identical
// encoding here is what shows that serving the (now shared) structs
// directly changed no key, no key order and no omitempty rule. Every
// struct appears twice where it has optional members: fully populated,
// and with only its required ones.
func TestV1ContractGolden(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	full := jobs.Info{
		ID: "job-0007", RequestID: "req-7f3a", State: "done", Algorithm: "gd", Grid: true,
		Iter: 12, TotalIters: 12, Cost: 0.015625, CostHistory: []float64{4.5, 1.25, 0.015625},
		CheckpointIter: 12, Checkpoint: "/spool/job-0007.objck", ResumedFrom: "job-0003",
		RecoveredFrom: "checkpoint@8", Tenant: "beamline-2", Priority: "interactive",
		PreemptedCount: 2, Error: "peer lost: worker 3 <w3> disconnected",
		Created: at(0), Started: at(250), Finished: at(9750),
		Streaming: true, Frames: 1600, ActiveFrames: 1536, Folds: 25, EOF: true,
		Prediction: &jobs.Prediction{
			Seconds: 9.5, ComputeSeconds: 6.25, WaitSeconds: 1.5, CommSeconds: 1.75,
			Source: "calibrated", Ranks: 4,
		},
		ActualSeconds: 9.5, PredictionErrorRatio: 1.0625,
		StragglerRanks: []int{1, 3}, ImbalanceRatio: 1.375,
	}
	queued := jobs.Info{ID: "job-0008", State: "queued", Algorithm: "serial", Created: at(10000)}

	workers := []client.GridWorker{
		{ID: 1, Name: "w1", Busy: true, LastSeen: at(9000), BytesIn: 4096, BytesOut: 1 << 20, Messages: 77, Sessions: 3},
		{ID: 2, Name: "w2"},
	}
	status := jobs.Status{
		Time: at(10000), UptimeSeconds: 86400.5, Workers: 4, WorkersIdle: 3, QueueDepth: 2,
		Jobs: map[string]int{"queued": 2, "running": 1, "done": 40, "failed": 1, "cancelled": 0},
		Grid: &jobs.GridSummary{Addr: "127.0.0.1:8619", Workers: workers, Busy: 1, Sessions: 9, BytesRouted: 123456789},
		WAL: &jobs.WALSummary{Records: 5000, Syncs: 900, Compactions: 2, Bytes: 65536, Errors: 1,
			ReplayRecords: 120, ReplayTorn: 1},
		Prediction: jobs.PredictionSummary{Jobs: 40, MeanAbsErrorPct: 17.5, LastErrorRatio: 1.0625,
			CalibratedFlops: 2.5e9, CalibrationIters: 480},
		SchedPolicy: "wfq",
		Tenants: []jobs.TenantStatus{
			{Name: "anonymous", Weight: 1, Active: 1, Submitted: 3, CompletedCostSeconds: 12.5},
			{Name: "beamline-2", Weight: 3, Active: 2, MaxActive: 4, IngestQuotaBytes: 1 << 30,
				IngestBytes: 1 << 20, Submitted: 41, Preempted: 2, QuotaRejections: 5,
				CompletedCostSeconds: 37.5, Share: 0.75},
		},
	}
	// The in-memory, grid-less, pre-first-submission shape.
	statusBare := jobs.Status{
		Time: at(0), Workers: 2, WorkersIdle: 2,
		Jobs: map[string]int{"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0},
	}

	spans := []obs.Span{
		{ID: 1, Name: "queue-wait", Rank: obs.RankCoordinator, Iter: obs.IterNone, Start: at(0), End: at(250)},
		{ID: 2, Name: "iteration", Rank: obs.RankCoordinator, Iter: 0, Start: at(250), End: at(1000)},
		{ID: 3, Parent: 2, Name: "compute", Rank: 1, Iter: 0, Start: at(260), End: at(760)},
		{ID: 4, Name: "finalize", Rank: obs.RankCoordinator, Iter: obs.IterNone, Start: at(9700)},
	}
	params := jobs.Params{
		Algorithm: "gd", Iterations: 12, StepSize: 0.01, MeshRows: 2, MeshCols: 2,
		RoundsPerIteration: 4, IntraWorkers: 2, CheckpointEvery: 4, Grid: true,
		Priority: "interactive", FoldEvery: 2, MaxIterations: 100, IngestCapacity: 256,
		RequestID: "req-7f3a", Tenant: "beamline-2", StartIter: 8,
	}
	flightEvents := []flight.Event{
		{Time: at(0), Kind: "prediction", Detail: "9.5s on 4 ranks (calibrated)"},
		{Time: at(250), Kind: "state", State: "running"},
		{Time: at(1000), Kind: "iteration", Iter: 1, Cost: 4.5},
		{Time: at(1100), Kind: "frames", Frames: 64},
	}

	bodies := map[string]any{
		"job":             full,
		"job_queued":      queued,
		"job_page":        client.JobPage{Jobs: []jobs.Info{full, queued}, NextCursor: "job-0008"},
		"status":          status,
		"status_bare":     statusBare,
		"event_iteration": jobs.Event{Type: "iteration", Job: "job-0007", Iter: 3, Cost: 1.25, Time: at(1000)},
		"event_state":     jobs.Event{Type: "state", Job: "job-0007", State: "done", Time: at(9750)},
		"event_frames":    jobs.Event{Type: "frames", Job: "job-0007", Frames: 64, Time: at(1100)},
		"job_trace":       client.JobTrace{Job: full, Spans: wireSpans(spans)},
		"debug_bundle":    debugBundle(full, params, spans, flightEvents),
		"grid_status":     client.GridStatus{Enabled: true, Addr: "127.0.0.1:8619", Workers: workers, Idle: 1},
	}
	for name, body := range bodies {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, body)
		wiretest.Golden(t, "v1_"+name+".golden.json", rec.Body.Bytes())
	}

	// The two bodies an idle, grid-less server answers deterministically
	// come from the real handlers: empty collections are arrays, not null.
	ts, _ := newTestServer(t)
	for name, path := range map[string]string{
		"job_page_empty":  "/v1/jobs",
		"grid_status_off": "/v1/grid",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		wiretest.Golden(t, "v1_"+name+".golden.json", raw)
	}
}
