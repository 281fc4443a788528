package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/wire/wiretest"
)

// TestIntraWorkersNeverChangeResult: how many goroutines evaluate the
// locations of a serial run or of each gd rank is a scheduling choice,
// not part of the numerics — the gradients are added in location order
// whatever the count. Every count gives the one-goroutine object and
// costs bit for bit, also when the goroutines share one processor.
func TestIntraWorkersNeverChangeResult(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"serial", Spec{Algorithm: "serial"}},
		{"serial-probe", Spec{Algorithm: "serial", ProbeRefineStep: testProbeStep}},
		{"gd-2x2", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 1}},
		{"gd-2x2-rounds4", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 4}},
	}
	for _, n := range []int{16, 22, 24, 32} {
		prob := problem(t, n)
		for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
			for _, c := range specs {
				spec := c.spec
				spec.Iterations, spec.StepSize, spec.Timeout = testIters, testStep, testTimeout
				t.Run(fmt.Sprintf("%s-n%d-procs%d", c.name, n, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					var want *Result
					for _, workers := range []int{1, 2, 3, 5} {
						spec.IntraWorkers = workers
						res, err := Run(prob, nil, spec, Hooks{})
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = res
							continue
						}
						sameObject(t, fmt.Sprintf("%d workers vs 1", workers), res.Slices, want.Slices)
						if !slices.Equal(res.CostHistory, want.CostHistory) {
							t.Fatalf("%d workers: cost history %v, 1 worker %v", workers, res.CostHistory, want.CostHistory)
						}
						if want.RefinedProbe != nil && !slices.Equal(res.RefinedProbe.Data, want.RefinedProbe.Data) {
							t.Fatalf("%d workers: refined probe differs from 1 worker's", workers)
						}
					}
				})
			}
		}
	}
}

// TestIntraCellsMatchTheirEngine: in the numerics ledger every
// gd-2x2-intra3 cell — three goroutines per rank — holds the object
// digest and cost trace of the single-goroutine gd-2x2 cell beside it.
func TestIntraCellsMatchTheirEngine(t *testing.T) {
	cells := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(wiretest.Frozen(t, "numerics.golden"))), "\n") {
		f := strings.Fields(line)
		cells[strings.Join(f[:3], " ")] = strings.Join(f[3:], " ")
	}
	compared := 0
	for cell, got := range cells {
		rest, ok := strings.CutPrefix(cell, "gd-2x2-intra3 ")
		if !ok {
			continue
		}
		compared++
		if want := cells["gd-2x2 "+rest]; got != want {
			t.Errorf("gd-2x2-intra3 %s: %s\ngd-2x2 %s: %s", rest, got, rest, want)
		}
	}
	if compared == 0 {
		t.Fatal("the ledger holds no gd-2x2-intra3 cell")
	}
}

// TestIntraWorkerGoroutinesEndWithTheRun: the goroutines that evaluate
// locations live for one run and are gone when it returns, on every
// return path — a normal end, a cancelled Ctx, a failing OnSnapshot and,
// for gd, a rank whose peer never answers.
func TestIntraWorkerGoroutinesEndWithTheRun(t *testing.T) {
	prob := problem(t, 16)
	boom := errors.New("disk full")
	for _, alg := range []string{"serial", "gd"} {
		spec := Spec{Algorithm: alg, MeshRows: 2, MeshCols: 2, IntraWorkers: 3,
			Iterations: 4, StepSize: testStep, Timeout: testTimeout, SnapshotEvery: 1}
		ctx, cancel := context.WithCancel(context.Background())
		paths := map[string]Hooks{
			"normal":         {},
			"cancel":         {Ctx: ctx, OnIteration: func(int, float64) { cancel() }},
			"snapshot error": {OnSnapshot: func(int, []*grid.Complex2D) error { return boom }},
		}
		for name, hooks := range paths {
			before := runtime.NumGoroutine()
			_, err := Run(prob, nil, spec, hooks)
			if (name == "normal") != (err == nil) {
				t.Errorf("%s %s: error %v", alg, name, err)
			}
			settled(t, fmt.Sprintf("%s %s", alg, name), before)
		}
		cancel()
	}

	// A failed rank: three ranks of a 2x2 world whose fourth never
	// joins time out on their exchanges.
	spec := Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, IntraWorkers: 3,
		Iterations: 2, StepSize: testStep, Timeout: 200 * time.Millisecond}
	before := runtime.NumGoroutine()
	err := simmpi.Run(4, spec.Timeout, func(comm *simmpi.Comm) error {
		if comm.Rank() == 3 {
			return nil
		}
		_, err := RunRank(comm, prob, nil, spec, Hooks{})
		return err
	})
	if err == nil {
		t.Error("ranks without their fourth peer finished without error")
	}
	settled(t, "gd failed rank", before)
}

// settled waits up to a few seconds for the goroutine count to come
// back to want: an exiting goroutine is counted until it has returned.
func settled(t *testing.T, what string, want int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if got > want {
		t.Errorf("%s: %d goroutines left running", what, got-want)
	}
}
