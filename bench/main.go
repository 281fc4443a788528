// Command bench is ptychopath's benchmark: eight closed-loop workloads,
// each measured end to end without tracing and, in a second run, layer
// by layer with spans recorded. See README.md in this directory.
//
//	go run ./bench -seed 1                        every workload, both runs, one fresh process each
//	go run ./bench -sets 2                        the same twice, and do the two sets agree?
//	go run ./bench -compare old.json new.json     verdict per workload x end-to-end metric
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                              one run in this process; the last line is its JSON result
//	go run ./bench -manifest                      print BENCHMARK.json as the catalogue defines it
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (moves the phantom's disorder only)")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.Float64Var(&cfg.scale, "scale", 1, "shortens per-operation iteration counts and the streamed prefix; shapes never change")
	trace := flag.Int("trace", 0, "with -workload: 0 untraced run (end-to-end metrics), 1 traced run (per-layer metrics)")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for traces, results and scratch state")
	sets := flag.Int("sets", 1, "full sets to run; with 2 or more, also report whether the sets agree within the bounds")
	results := flag.String("o", "", "where the full run writes its results (default <out>/results.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()
	cfg.traced = *trace != 0
	cfg.setups, cfg.setupFloorS = 3, 1

	err := func() error {
		switch {
		case *printManifest:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(currentManifest())
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("-compare needs two result files: old.json new.json")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		if cfg.workload != "" {
			return runOne(cfg)
		}
		if *results == "" {
			*results = cfg.outDir + "/results.json"
		}
		return runSets(cfg, *sets, *results)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitCode(err))
	}
}

// The exit code tells a wrong result (1) from a run that could not
// measure at all (2).
type wrongResult string

func (e wrongResult) Error() string { return string(e) }

func exitCode(err error) int {
	if _, ok := err.(wrongResult); ok {
		return 1
	}
	return 2
}

// runOne is the driver's entry point: one workload, one run, result on
// the last line of standard output. A run that measured but found wrong
// outputs still exits 0 — "correct": false is the report.
func runOne(cfg runConfig) error {
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	return res.print(catalogueFor(cfg.traced))
}

func catalogueFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
