// Command ptychorecon is the end-to-end reconstruction CLI: it loads a
// dataset file (see cmd/datagen), reconstructs it with the selected
// algorithm, reports convergence and per-worker statistics, and can
// write phase/magnitude PNGs of the result.
//
// Usage:
//
//	ptychorecon -i dataset.ptycho [-alg gd|hve|serial] [-mesh 2x2]
//	            [-iters 20] [-step 0.01] [-rounds 1] [-faithful]
//	            [-no-appp] [-png out_prefix]
//	            [-checkpoint ck.objck] [-checkpoint-every 5]
//	            [-resume ck.objck] [-save final.objck]
//
// With -checkpoint, the in-progress object is written every
// -checkpoint-every iterations (atomically: tmp + rename), so an
// interrupted batch run can restart from where it stopped via -resume.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/obs"
	"ptychopath/internal/solver"

	"ptychopath"
)

func main() {
	in := flag.String("i", "", "input dataset file (required)")
	alg := flag.String("alg", "gd", "algorithm: gd (gradient decomposition), hve (halo voxel exchange), serial")
	meshStr := flag.String("mesh", "2x2", "tile mesh ROWSxCOLS for parallel algorithms")
	iters := flag.Int("iters", 20, "iterations")
	step := flag.Float64("step", 0.01, "gradient step size")
	rounds := flag.Int("rounds", 1, "communication rounds per iteration (Alg 1's T)")
	faithful := flag.Bool("faithful", false, "use the paper's literal Alg 1 (local + accumulated updates)")
	noAPPP := flag.Bool("no-appp", false, "disable asynchronous pipelining (barrier-separated passes)")
	workers := flag.Int("workers", 0, "goroutines evaluating the locations of the serial run or of each gd rank (batch mode; 0: all cores for serial, 1 for gd); never changes the result")
	pngPrefix := flag.String("png", "", "write <prefix>_phase.png and <prefix>_mag.png of slice 0")
	save := flag.String("save", "", "write the reconstructed object to this checkpoint file (OBJCKv1)")
	resume := flag.String("resume", "", "start from an object checkpoint instead of vacuum")
	checkpoint := flag.String("checkpoint", "", "write the in-progress object to this OBJCKv1 file every -checkpoint-every iterations")
	ckEvery := flag.Int("checkpoint-every", 5, "iterations between -checkpoint writes")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "ptychorecon: -i dataset required (generate one with datagen)")
		os.Exit(2)
	}
	cfg := config{
		in: *in, alg: *alg, mesh: *meshStr, iters: *iters, step: *step,
		rounds: *rounds, workers: *workers, faithful: *faithful, noAPPP: *noAPPP,
		pngPrefix: *pngPrefix, savePath: *save, resumePath: *resume,
		checkpointPath: *checkpoint, checkpointEvery: *ckEvery,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ptychorecon:", err)
		os.Exit(1)
	}
}

// config carries the parsed flags.
type config struct {
	in, alg, mesh                   string
	iters                           int
	step                            float64
	rounds, workers                 int
	faithful, noAPPP                bool
	pngPrefix, savePath, resumePath string
	checkpointPath                  string
	checkpointEvery                 int
}

func parseMesh(s string) (rows, cols int, err error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("mesh %q: want ROWSxCOLS", s)
	}
	if rows, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("mesh %q: %w", s, err)
	}
	if cols, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("mesh %q: %w", s, err)
	}
	return rows, cols, nil
}

// checkpointWriter returns an OnSnapshot hook that writes the
// in-progress object atomically (tmp + rename), or nil when -checkpoint
// is unset.
func checkpointWriter(path string) func(iter int, slices []*grid.Complex2D) error {
	if path == "" {
		return nil
	}
	return func(iter int, slices []*grid.Complex2D) error {
		if err := dataio.WriteObjectFileAtomic(path, slices); err != nil {
			return err
		}
		fmt.Printf("  checkpoint after iter %d -> %s\n", iter+1, path)
		return nil
	}
}

func run(cfg config) error {
	rec := obs.NewRecorder()
	var prob *solver.Problem
	var err error
	rec.Time("load", func() { prob, err = dataio.ReadFile(cfg.in) })
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d locations, %dx%d px, %d slices\n",
		cfg.in, prob.Pattern.N(), prob.Pattern.ImageW, prob.Pattern.ImageH, prob.Slices)

	var init []*grid.Complex2D // nil = vacuum
	if cfg.resumePath != "" {
		ck, err := dataio.ReadObjectFile(cfg.resumePath)
		if err != nil {
			return err
		}
		if len(ck) != prob.Slices || !ck[0].Bounds.Eq(prob.ImageBounds()) {
			return fmt.Errorf("checkpoint %s does not match dataset geometry", cfg.resumePath)
		}
		init = ck
		fmt.Printf("resumed from %s\n", cfg.resumePath)
	}
	spec := engine.Spec{
		Algorithm: cfg.alg, Iterations: cfg.iters, StepSize: cfg.step,
		RoundsPerIteration: cfg.rounds, IntraWorkers: cfg.workers,
		FaithfulAlg1: cfg.faithful, DisableAPPP: cfg.noAPPP,
		Timeout: 5 * time.Minute,
	}
	if spec.MeshRows, spec.MeshCols, err = parseMesh(cfg.mesh); err != nil {
		return err
	}
	hooks := engine.Hooks{
		OnIteration: func(it int, cost float64) {
			fmt.Printf("  iter %3d  cost %.6g\n", it+1, cost)
		},
		OnSnapshot: checkpointWriter(cfg.checkpointPath),
	}
	if hooks.OnSnapshot != nil {
		spec.SnapshotEvery = cfg.checkpointEvery
		if spec.SnapshotEvery <= 0 {
			return fmt.Errorf("-checkpoint-every must be positive with -checkpoint, got %d", spec.SnapshotEvery)
		}
	}

	var r *engine.Result
	rec.Time("reconstruct", func() { r, err = engine.Run(prob, init, spec, hooks) })
	if err != nil {
		return err
	}
	slices := r.Slices
	if workers := len(r.PerRankLocations); workers > 0 {
		fmt.Printf("workers %d, exchanged %.2f MB in %d messages", workers, float64(r.BytesSent)/1e6, r.MessagesSent)
		if cfg.alg == "hve" {
			owned := sum(r.PerRankOwned)
			fmt.Printf(" (redundant locations: %d of %d owned)", sum(r.PerRankLocations)-owned, owned)
		}
		fmt.Println()
		printMem(r.PerRankMemBytes)
	}

	if cfg.savePath != "" {
		if err := dataio.WriteObjectFile(cfg.savePath, slices); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", cfg.savePath)
	}
	if cfg.pngPrefix != "" {
		rec.Time("png", func() {
			f := ptycho.Field{W: slices[0].W(), H: slices[0].H(), Data: slices[0].Data}
			if err = ptycho.SavePNG(cfg.pngPrefix+"_phase.png", ptycho.PhaseImage(f)); err != nil {
				return
			}
			err = ptycho.SavePNG(cfg.pngPrefix+"_mag.png", ptycho.MagnitudeImage(f))
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s_phase.png and %s_mag.png\n", cfg.pngPrefix, cfg.pngPrefix)
	}
	rec.Report(os.Stdout, "wall-clock phases")
	return nil
}

func printMem(perRank []int64) {
	var peak int64
	for _, m := range perRank {
		if m > peak {
			peak = m
		}
	}
	fmt.Printf("peak worker footprint %.2f MB\n", float64(peak)/1e6)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
