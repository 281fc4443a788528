package main

import (
	"bytes"
	"fmt"
	"math"
)

// relTol is how closely costs that should be the same arithmetic must
// agree: the engines are deterministic, so this only absorbs the
// decimal round trip of a cost through JSON.
const relTol = 1e-9

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// checkCosts returns why a cost history is wrong, or "" when it is
// right: planned length, finite, ending below its start, and — where a
// reference exists — leading costs equal to solver.Reconstruct's.
func checkCosts(hist []float64, want int, reference []float64) string {
	if len(hist) != want {
		return fmt.Sprintf("cost history has %d entries, want %d", len(hist), want)
	}
	for i, c := range hist {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Sprintf("cost %d is %v", i, c)
		}
	}
	if len(hist) > 1 && !(hist[len(hist)-1] < hist[0]) {
		return fmt.Sprintf("cost did not fall: %.6g -> %.6g", hist[0], hist[len(hist)-1])
	}
	for i := 0; i < min(len(hist), len(reference)); i++ {
		if d := relDiff(hist[i], reference[i]); d > relTol {
			return fmt.Sprintf("cost %d is %.17g, reference %.17g (rel %.2g)", i, hist[i], reference[i], d)
		}
	}
	return ""
}

// checkObject returns why a served OBJCKv1 object is wrong, or "" when
// it is byte-identical to the one the same spec produced in-process.
func checkObject(got, want []byte) string {
	if len(got) == 0 {
		return "empty object"
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("object differs from the in-process run (%d vs %d bytes)", len(got), len(want))
	}
	return ""
}
