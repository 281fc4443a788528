package jobs

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/gridworker"
)

// metricValue scrapes one sample from the service's exposition.
func metricValue(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: parsing %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, buf.String())
	return 0
}

func TestRankTrackerStragglerDetection(t *testing.T) {
	tr := newRankTracker(4)
	// Six complete rows where rank 2 computes 10x the others.
	for iter := 1; iter <= 6; iter++ {
		var lastRatio float64
		var full bool
		for rank := 0; rank < 4; rank++ {
			c := int64(time.Millisecond)
			if rank == 2 {
				c = int64(10 * time.Millisecond)
			}
			lastRatio, full = tr.observe(rank, iter, c, int64(time.Microsecond))
			if full != (rank == 3) {
				t.Fatalf("iter %d rank %d: row complete = %v", iter, rank, full)
			}
		}
		// max/mean = 10 / ((3*1+10)/4) = 40/13.
		if want := 40.0 / 13.0; lastRatio < want-1e-9 || lastRatio > want+1e-9 {
			t.Fatalf("iter %d: row ratio %v, want %v", iter, lastRatio, want)
		}
	}
	sum := tr.summary()
	if sum.Rows != 6 {
		t.Errorf("rows %d, want 6", sum.Rows)
	}
	if len(sum.Stragglers) != 1 || sum.Stragglers[0] != 2 {
		t.Errorf("stragglers %v, want [2]", sum.Stragglers)
	}
	if sum.MeanRatio <= 1.5 {
		t.Errorf("mean ratio %v, want > 1.5", sum.MeanRatio)
	}
	if sum.Slow[2] != 6 || sum.Slow[0] != 0 {
		t.Errorf("slow counts %v, want rank 2 slow in all 6 rows", sum.Slow)
	}
}

func TestRankTrackerBalancedRanksNotFlagged(t *testing.T) {
	tr := newRankTracker(2)
	for iter := 1; iter <= 5; iter++ {
		tr.observe(0, iter, int64(time.Millisecond), 0)
		tr.observe(1, iter, int64(time.Millisecond)+int64(50*time.Microsecond), 0)
	}
	sum := tr.summary()
	if len(sum.Stragglers) != 0 {
		t.Errorf("stragglers %v on a balanced run, want none", sum.Stragglers)
	}
	if sum.MeanRatio < 1 || sum.MeanRatio > 1.1 {
		t.Errorf("mean ratio %v, want ~1", sum.MeanRatio)
	}
	// nil tracker (serial jobs) must no-op everywhere.
	var nilTr *rankTracker
	if _, full := nilTr.observe(0, 1, 1, 1); full {
		t.Error("nil tracker reported a complete row")
	}
	if s := nilTr.summary(); s.Rows != 0 {
		t.Error("nil tracker summary not empty")
	}
}

func TestThroughputEstimateEWMA(t *testing.T) {
	var e ewma
	e.observe(1000)
	if f, n := e.value(); f != 1000 || n != 1 {
		t.Fatalf("after first sample: %v/%d, want 1000/1", f, n)
	}
	e.observe(2000) // 1000 + 0.2*(2000-1000) = 1200
	if f, _ := e.value(); f != 1200 {
		t.Fatalf("EWMA %v, want 1200", f)
	}
	e.observe(-5) // rejected
	if _, n := e.value(); n != 2 {
		t.Fatalf("negative sample folded in (n=%d)", n)
	}
}

// TestPredictionRecorded runs a deterministic 2-rank grid job and
// checks the predicted-vs-actual loop end to end: the prediction rides
// the wire object from submission, completion scores it into the error
// histogram and the status summary, and the next submission predicts
// from the live calibration.
func TestPredictionRecorded(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 2, QueueDepth: 8, CheckpointEvery: 4,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	startGridWorkers(t, s, 2)

	params := Params{Algorithm: "gd", Iterations: 6, StepSize: 0.02,
		MeshRows: 1, MeshCols: 2, Grid: true}
	j, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	info := j.Info(0)
	if info.Prediction == nil {
		t.Fatal("no prediction on the wire object at submission")
	}
	if info.Prediction.Seconds <= 0 || info.Prediction.Ranks != 2 || info.Prediction.Source != "model" {
		t.Errorf("prediction %+v, want positive runtime over 2 ranks from the model", info.Prediction)
	}
	waitFor(t, "grid job done", func() bool { return j.State() == Done })

	info = j.Info(0)
	if info.ActualSeconds <= 0 {
		t.Errorf("actual_seconds %v, want > 0 after completion", info.ActualSeconds)
	}
	if info.PredictionErrorRatio <= 0 {
		t.Errorf("prediction_error_ratio %v, want > 0 after completion", info.PredictionErrorRatio)
	}
	if n := metricValue(t, s, "ptychoserve_job_runtime_prediction_error_ratio_count"); n != 1 {
		t.Errorf("prediction-error histogram count %v, want 1", n)
	}
	st := s.Status()
	if st.Prediction.Jobs != 1 || st.Prediction.LastErrorRatio != info.PredictionErrorRatio {
		t.Errorf("status prediction summary %+v does not match the job's ratio %v",
			st.Prediction, info.PredictionErrorRatio)
	}
	if st.Prediction.CalibrationIters == 0 {
		t.Error("no calibration iterations folded in by a 6-iteration job")
	}

	// The predicted-* spans overlay the actual timeline in the trace.
	names := map[string]bool{}
	for _, sp := range j.Trace().Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"predicted-runtime", "predicted-compute", "predicted-wait", "predicted-comm"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
	// Flight recorder saw the prediction and the lifecycle.
	kinds := map[string]bool{}
	for _, e := range j.FlightEvents() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"prediction", "state", "iteration"} {
		if !kinds[want] {
			t.Errorf("flight recorder missing %q event (have %v)", want, kinds)
		}
	}

	// The second submission predicts from the live throughput EWMA.
	j2, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if src := j2.Info(0).Prediction.Source; src != "calibrated" {
		t.Errorf("second prediction source %q, want calibrated", src)
	}
	waitFor(t, "second grid job done", func() bool { return j2.State() == Done })
}

// TestStragglerFlagged injects a genuine per-iteration delay into one of
// two grid workers and checks the straggler pipeline: the slowed rank is
// flagged on the wire object, annotated as a span in the trace, noted in
// the flight recorder, and every completed per-rank row lands in the
// imbalance histogram.
func TestStragglerFlagged(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 2, QueueDepth: 8, CheckpointEvery: 100,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: "fast"})
	go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: "slow",
		StatsDelay: func(rank, iter int) time.Duration { return 10 * time.Millisecond },
	})
	waitFor(t, "grid workers registered", func() bool { return len(s.GridWorkers()) == 2 })

	const iters = 6
	j, err := s.Submit(prob, Params{Algorithm: "gd", Iterations: iters, StepSize: 0.02,
		MeshRows: 1, MeshCols: 2, Grid: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "grid job done", func() bool { return j.State() == Done })

	info := j.Info(0)
	if len(info.StragglerRanks) != 1 {
		t.Fatalf("straggler_ranks %v, want exactly the slowed rank", info.StragglerRanks)
	}
	slowRank := info.StragglerRanks[0]
	if info.ImbalanceRatio <= 1.5 {
		t.Errorf("imbalance_ratio %v, want well above 1.5 with a 10ms/iter delay", info.ImbalanceRatio)
	}
	if n := metricValue(t, s, "ptychoserve_job_rank_imbalance_ratio_count"); n != iters {
		t.Errorf("imbalance histogram count %v, want one row per iteration (%d)", n, iters)
	}
	var span bool
	for _, sp := range j.Trace().Spans() {
		if sp.Name == "straggler" && sp.Rank == slowRank {
			span = true
		}
	}
	if !span {
		t.Errorf("no straggler span for rank %d in the trace", slowRank)
	}
	var flight bool
	for _, e := range j.FlightEvents() {
		if e.Kind == "straggler" && strings.Contains(e.Detail, fmt.Sprintf("rank %d", slowRank)) {
			flight = true
		}
	}
	if !flight {
		t.Errorf("no straggler entry in the flight recorder for rank %d", slowRank)
	}
}

// TestStatusRollup pins the shape of the fleet-health document on a
// plain (no grid, in-memory store) service.
func TestStatusRollup(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 2, QueueDepth: 4})
	j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j.State() == Done })

	st := s.Status()
	if st.Workers != 2 || st.WorkersIdle != 2 || st.QueueDepth != 0 {
		t.Errorf("pool block %d/%d idle, queue %d; want 2/2 idle, queue 0",
			st.Workers, st.WorkersIdle, st.QueueDepth)
	}
	if st.Jobs["done"] != 1 || st.Jobs["running"] != 0 {
		t.Errorf("job census %v, want one done", st.Jobs)
	}
	if st.Grid != nil {
		t.Error("grid block present without a grid")
	}
	if st.WAL != nil {
		t.Error("wal block present on the in-memory store")
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", st.UptimeSeconds)
	}
	if st.Prediction.Jobs != 1 {
		t.Errorf("prediction summary scored %d jobs, want 1", st.Prediction.Jobs)
	}
	// Serial jobs predict too (ranks=1); idle gauge matches the pool.
	if v := metricValue(t, s, "ptychoserve_workers_idle"); v != 2 {
		t.Errorf("workers_idle gauge %v, want 2", v)
	}
}
