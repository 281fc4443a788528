package gradsync

import (
	"slices"
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/tiling"
)

func TestIntraWorkersMatchesSingleThreaded(t *testing.T) {
	prob, obj := buildProblem(t, 6, 6, 0.75, 2)
	init := phantom.Vacuum(obj.Bounds(), 2)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))

	single, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 4,
		IntraWorkers: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 4,
		IntraWorkers: 3, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gradients are added into AccBuf in location order whatever the
	// goroutine count, so the results are equal bit for bit.
	for s := range single.Slices {
		if !slices.Equal(multi.Slices[s].Data, single.Slices[s].Data) {
			t.Fatalf("slice %d: intra-parallel result differs by %g", s, multi.Slices[s].MaxDiff(single.Slices[s]))
		}
	}
	if !slices.Equal(multi.CostHistory, single.CostHistory) {
		t.Fatalf("cost history %v, single-threaded %v", multi.CostHistory, single.CostHistory)
	}
}

func TestIntraWorkersDeterministic(t *testing.T) {
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	run := func() *Result {
		res, err := Reconstruct(prob, init.Slices, Options{
			Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 3,
			IntraWorkers: 4, Timeout: testTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for s := range a.Slices {
		if a.Slices[s].MaxDiff(b.Slices[s]) != 0 {
			t.Fatal("intra-parallel runs must be bit-identical (deterministic merge order)")
		}
	}
}

func TestIntraWorkersRejectedInFaithfulMode(t *testing.T) {
	prob, obj := buildProblem(t, 3, 3, 0.6, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	if _, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeFaithful, StepSize: 0.02, Iterations: 1,
		IntraWorkers: 2, Timeout: testTimeout,
	}); err == nil {
		t.Fatal("IntraWorkers with faithful mode must be rejected")
	}
}

func TestIntraWorkersMoreThanLocations(t *testing.T) {
	// More goroutines than locations per tile must still work.
	prob, obj := buildProblem(t, 3, 3, 0.6, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 3, 3, tiling.HaloForWindow(prob.WindowN))
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.02, Iterations: 2,
		IntraWorkers: 16, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostHistory[1] >= res.CostHistory[0] {
		t.Fatal("did not converge with oversubscribed intra-workers")
	}
}
