package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &f, nil
}

// series is one metric of one workload across sets.
func series(sets []resultSet, workload, name string) (values []float64) {
	for _, s := range sets {
		if r, ok := s.Workloads[workload]; ok {
			values = append(values, r.Metrics[name].Value)
		}
	}
	return values
}

// failedRatio is failed over attempted operations of one workload
// across sets.
func failedRatio(sets []resultSet, workload string) float64 {
	failed, attempted := 0, 0
	for _, s := range sets {
		if r, ok := s.Workloads[workload]; ok {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// minGain is the smallest change reported as "better" when a file has a
// single set and so no spread of its own to compare against.
const minGain = 0.01

// verdict applies one metric's bound to the old and new values:
// "unresolved" when either side's own set-to-set spread exceeds the
// bound, "worse" when the new median is worse by more than the bound,
// "better" when it is better by more than both spreads, else "same".
// change is the new median's move as a share of the old median.
func verdict(m metric, oldV, newV []float64) (v string, change, spread float64) {
	oldMed, newMed := median(oldV), median(newV)
	change = (newMed - oldMed) / oldMed
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	for _, vals := range [][]float64{oldV, newV} {
		spread = max(spread, (slices.Max(vals)-slices.Min(vals))/median(vals))
	}
	switch {
	case spread > m.Bound:
		return "unresolved", change, spread
	case worse > m.Bound:
		return "worse", change, spread
	case -worse > max(spread, minGain):
		return "better", change, spread
	}
	return "same", change, spread
}

// compareFiles prints one row per workload x end-to-end metric and
// fails when any row is worse or any workload's failed ratio rose.
func compareFiles(oldPath, newPath string) error {
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		path string
		file *resultsFile
	}{{oldPath, oldF}, {newPath, newF}} {
		for i, s := range f.file.Sets {
			if s.Env.Noisy {
				fmt.Printf("# NOISY: %s set %d started at load %.2f on %d cpus; its timings are suspect\n", f.path, i+1, s.Env.Load1, s.Env.NProc)
			}
		}
	}
	if oldF.Scale != newF.Scale || oldF.Seconds != newF.Seconds {
		fmt.Printf("# WARNING: runs differ in size: scale %g vs %g, seconds %g vs %g\n", oldF.Scale, newF.Scale, oldF.Seconds, newF.Seconds)
	}
	fmt.Printf("%-16s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			oldV, newV := series(oldF.Sets, w.name, m.Name), series(newF.Sets, w.name, m.Name)
			if len(oldV) == 0 || len(newV) == 0 {
				fmt.Printf("%-16s %-18s missing from one file\n", w.name, m.Name)
				continue
			}
			v, change, spread := verdict(m, oldV, newV)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %6.0f%%  %s\n", w.name, m.Name, median(oldV), median(newV), change*100, spread*100, m.Bound*100, v)
		}
		if oldFailed, newFailed := failedRatio(oldF.Sets, w.name), failedRatio(newF.Sets, w.name); newFailed > oldFailed {
			fmt.Printf("%-16s %-18s %14.6f %14.6f  worse\n", w.name, "failed_ratio", oldFailed, newFailed)
			bad++
		}
	}
	if bad > 0 {
		return wrongResult(fmt.Sprintf("%d rows are worse", bad))
	}
	return nil
}
