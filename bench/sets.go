package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	Seed    int64       `json:"seed"`
	Scale   float64     `json:"scale"`
	Seconds float64     `json:"seconds"`
	Sets    []resultSet `json:"sets"`
}

// resultSet is one pass over all workloads on one machine state.
type resultSet struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

// runSets runs every workload n times over, each run a fresh child
// process (untraced, then traced), prints every metric, writes the
// results file and, for n >= 2, checks that the sets agree.
func runSets(cfg runConfig, n int, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds}
	failed := 0
	for s := range n {
		set := resultSet{Env: captureEnvironment(), Workloads: map[string]*result{}}
		if s > 0 {
			// The load average now is mostly the previous set's own doing.
			set.Env.Noisy = file.Sets[0].Env.Noisy
		}
		fmt.Printf("# set %d of %d: %s, %d of %d cpus, %s, linux %s, commit %s, seed %d, scale %g, load %.2f\n",
			s+1, n, set.Env.CPU, set.Env.GOMAXPROCS, set.Env.NProc, set.Env.Go, set.Env.Kernel, set.Env.Commit, cfg.seed, cfg.scale, set.Env.Load1)
		if set.Env.Noisy {
			fmt.Println("# NOISY: load average above nproc/2 at start; timings are suspect")
		}
		for _, w := range workloads {
			fmt.Printf("\n## %s\n", w.name)
			merged := &result{Correct: true, Metrics: map[string]metricValue{}}
			for _, traced := range []bool{false, true} {
				res, err := runChild(self, cfg, w.name, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				merged.Correct = merged.Correct && res.Correct
				merged.Attempted += res.Attempted
				merged.Failed += res.Failed
				for _, m := range catalogueFor(traced) {
					merged.Metrics[m.Name] = res.Metrics[m.Name]
					fmt.Printf("%-42s %16.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
				}
			}
			fmt.Printf("%-42s %16.6f %s (%d of %d)\n", "failed_ratio", float64(merged.Failed)/float64(merged.Attempted), "ratio", merged.Failed, merged.Attempted)
			failed += merged.Failed
			set.Workloads[w.name] = merged
		}
		file.Sets = append(file.Sets, set)
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s, traces to %s/trace-<workload>.json\n", path, cfg.outDir)
	agree := true
	if n >= 2 {
		agree = printAgreement(file.Sets)
	}
	switch {
	case failed > 0:
		return wrongResult(fmt.Sprintf("%d operations failed or were incorrect", failed))
	case !agree:
		return wrongResult("sets of the same code disagree by more than the bounds")
	}
	return nil
}

// runChild runs one workload in a fresh process and parses the result
// from the last line it prints. The child's diagnostics pass through.
func runChild(self string, cfg runConfig, workload string, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-trace", trace,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child run (trace %s): %w", trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child run (trace %s) printed no result: %w", trace, err)
	}
	for _, line := range lines[:len(lines)-1] {
		if bytes.HasPrefix(line, []byte("FAILED")) {
			fmt.Printf("%s\n", line)
		}
	}
	return &res, nil
}

// printAgreement is the repeatability check: for every workload and
// end-to-end metric the sets' values must lie within the metric's bound
// of each other, and every deterministic final cost must repeat.
func printAgreement(sets []resultSet) bool {
	fmt.Printf("\n# agreement of %d sets (largest - smallest, as a share of the smallest, against the bound)\n", len(sets))
	ok := true
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := series(sets, w.name, m.Name)
			lo, hi := slices.Min(vals), slices.Max(vals)
			spread := (hi - lo) / lo
			verdict := "agree"
			if spread > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-16s %-18s %14.4f .. %-14.4f %6.2f%% of %4.0f%%  %s\n", w.name, m.Name, lo, hi, spread*100, m.Bound*100, verdict)
		}
		if w.kind == kindStream {
			continue // folds land where the feed's timing puts them
		}
		costs := series(sets, w.name, "bench.final_cost")
		if lo, hi := slices.Min(costs), slices.Max(costs); relDiff(lo, hi) > relTol {
			fmt.Printf("%-16s %-18s %.17g .. %.17g  DISAGREE\n", w.name, "bench.final_cost", lo, hi)
			ok = false
		}
	}
	return ok
}
