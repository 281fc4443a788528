// Command ptychobench regenerates every table and figure of the paper's
// evaluation section (SC22, "Image Gradient Decomposition for Parallel
// and Memory-Efficient Ptychographic Reconstruction").
//
// Usage:
//
//	ptychobench -exp table1|table2|table3|fig7a|fig7b|fig8|fig9|all
//	           [-out DIR]   write CSVs and PNGs next to the console output
//	           [-quick]     shrink the functional experiments (CI mode)
//
// Paper-scale results (tables II/III, fig 7) come from the calibrated
// discrete-event model of a Summit-like machine; functional results
// (fig 8, fig 9) run the real algorithms on goroutine workers at laptop
// scale. ARCHITECTURE.md's package map says which package models what.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ptychopath"
	"ptychopath/internal/cluster"
	"ptychopath/internal/perfmodel"
	"ptychopath/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table1, table2, table3, fig7a, fig7b, fig8, fig9, all")
	out := flag.String("out", "", "optional output directory for CSV/PNG artifacts")
	quick := flag.Bool("quick", false, "shrink functional experiments for fast runs")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	runners := map[string]func(outDir string, quick bool) error{
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"fig7a":    fig7a,
		"fig7b":    fig7b,
		"fig8":     fig8,
		"fig9":     fig9,
		"ablation": ablation,
		"frontier": frontier,
	}
	order := []string{"table1", "table2", "table3", "fig7a", "fig7b", "fig8", "fig9", "ablation", "frontier"}
	if *exp == "all" {
		for _, id := range order {
			report.Rule(os.Stdout, id)
			if err := runners[id](*out, *quick); err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
		}
		return
	}
	fn, ok := runners[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (want table1..3, fig7a, fig7b, fig8, fig9, ablation, all)", *exp))
	}
	if err := fn(*out, *quick); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptychobench:", err)
	os.Exit(1)
}

// table1 prints the dataset-size table (paper Table I).
func table1(string, bool) error {
	small := cluster.SmallLeadTitanate()
	large := cluster.LargeLeadTitanate()
	report.KV(os.Stdout, "Table I: dataset sizes", [][2]string{
		{"Sample name", fmt.Sprintf("%-28s %s", small.Name, large.Name)},
		{"Measurements y size", fmt.Sprintf("%-28s %s",
			fmt.Sprintf("%dx%dx%d", small.DetectorN, small.DetectorN, small.Locations),
			fmt.Sprintf("%dx%dx%d", large.DetectorN, large.DetectorN, large.Locations))},
		{"Reconstruction V size", fmt.Sprintf("%-28s %s",
			fmt.Sprintf("%dx%dx%d", small.ImageW, small.ImageH, small.Slices),
			fmt.Sprintf("%dx%dx%d", large.ImageW, large.ImageH, large.Slices))},
		{"Image resolution", fmt.Sprintf("%-28s %s", small.VoxelPM3, large.VoxelPM3)},
	})
	return nil
}

func table2(outDir string, _ bool) error {
	cfg := perfmodel.DefaultConfig(cluster.SmallLeadTitanate())
	gd := cfg.GDTable(perfmodel.PaperGPUCountsSmall)
	report.PerfTable(os.Stdout,
		"Table II(a): Gradient Decomposition, small Lead Titanate dataset (model)", gd)
	hve := cfg.HVETable(perfmodel.PaperGPUCountsSmall)
	report.PerfTable(os.Stdout,
		"Table II(b): Halo Voxel Exchange, same dataset (model; NA = tile-size constraint)", hve)
	return writeCSVs(outDir, map[string][]perfmodel.Row{
		"table2a_gd_small.csv":  gd,
		"table2b_hve_small.csv": hve,
	})
}

func table3(outDir string, _ bool) error {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	gd := cfg.GDTable(perfmodel.PaperGPUCountsLarge)
	report.PerfTable(os.Stdout,
		"Table III(a): Gradient Decomposition, large Lead Titanate dataset (model)", gd)
	hve := cfg.HVETable(append(append([]int{}, perfmodel.PaperHVECountsLarge...), 924))
	report.PerfTable(os.Stdout,
		"Table III(b): Halo Voxel Exchange, same dataset (model; 924 GPUs shown to expose the constraint)", hve)
	return writeCSVs(outDir, map[string][]perfmodel.Row{
		"table3a_gd_large.csv":  gd,
		"table3b_hve_large.csv": hve,
	})
}

func fig7a(outDir string, _ bool) error {
	counts := []int{6, 24, 54, 126, 198, 462, 924, 2048, 4158}
	smallCfg := perfmodel.DefaultConfig(cluster.SmallLeadTitanate())
	largeCfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())

	var series []report.Series
	mk := func(name string, cfg perfmodel.Config, counts []int) report.Series {
		s := report.Series{Name: name}
		for _, k := range counts {
			r := cfg.GDRow(k)
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, r.RuntimeMin)
		}
		return s
	}
	small := mk("small(min)", smallCfg, counts[:7])
	large := mk("large(min)", largeCfg, counts)
	// Ideal O(1/P) lines anchored at the 6-GPU runtime.
	ideal := report.Series{Name: "ideal-large"}
	for i, k := range counts {
		_ = i
		ideal.X = append(ideal.X, float64(k))
		ideal.Y = append(ideal.Y, large.Y[0]*6/float64(k))
	}
	series = append(series, small, large, ideal)
	report.SeriesTable(os.Stdout,
		"Fig 7a: strong scaling, runtime (minutes, 100 iterations) vs GPUs (model)",
		"GPUs", series)
	if outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(outDir, "fig7a_scaling.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "gpus,small_min,large_min,ideal_large_min")
	for i, k := range counts {
		smallV := ""
		if i < len(small.Y) {
			smallV = fmt.Sprintf("%.3f", small.Y[i])
		}
		fmt.Fprintf(f, "%d,%s,%.3f,%.3f\n", k, smallV, large.Y[i], ideal.Y[i])
	}
	return nil
}

func fig7b(outDir string, _ bool) error {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	counts := []int{24, 54, 126, 198, 462}
	var labels []string
	var rows []perfmodel.Breakdown
	for _, k := range counts {
		with := cfg.GDRow(k)
		without := cfg.GDRowNoAPPP(k)
		labels = append(labels, fmt.Sprintf("%d", k), fmt.Sprintf("%d w/o", k))
		rows = append(rows, with.Breakdown, without.Breakdown)
	}
	report.BreakdownTable(os.Stdout,
		"Fig 7b: runtime breakdown, large dataset, with and without APPP (model)",
		labels, rows)
	if outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(outDir, "fig7b_breakdown.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "gpus,appp,compute_min,wait_min,comm_min")
	for i, k := range counts {
		w := rows[2*i]
		wo := rows[2*i+1]
		fmt.Fprintf(f, "%d,with,%.3f,%.3f,%.3f\n", k, w.ComputeMin, w.WaitMin, w.CommMin)
		fmt.Fprintf(f, "%d,without,%.3f,%.3f,%.3f\n", k, wo.ComputeMin, wo.WaitMin, wo.CommMin)
	}
	return nil
}

// fig8 runs the functional seam-artifact study. Border artifacts are
// measured on the RESIDUAL (reconstruction minus ground truth, after
// global-phase alignment) as the concentration of error in a band
// around the tile borders — the copy-paste artifact signature of the
// paper's Fig 8(a). The lattice itself cancels in the residual, and the
// serial run provides the artifact-free reference at the same borders.
// At this laptop scale the effect is a consistent ~10% excess border
// error for Halo Voxel Exchange while Gradient Decomposition stays at
// or below the serial baseline; the paper's visually obvious seams
// occur at 3072^2 x 100-slice scale.
func fig8(outDir string, quick bool) error {
	scanN, iters := 12, 32
	if quick {
		scanN, iters = 8, 12
	}
	ds, err := ptycho.SimulateDataset(ptycho.SimulateOptions{
		ScanCols: scanN, ScanRows: scanN, OverlapRatio: 0.75,
		ProbeRadiusPix: 12, WindowN: 24, Slices: 1,
		Phantom: ptycho.PhantomLeadTitanate, Seed: 1,
	})
	if err != nil {
		return err
	}
	serial, err := ds.Reconstruct(ptycho.ReconstructOptions{
		Algorithm: ptycho.Serial, SerialSequential: true,
		StepSize: 0.01, Iterations: iters,
	})
	if err != nil {
		return err
	}
	gd, err := ds.Reconstruct(ptycho.ReconstructOptions{
		Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
		StepSize: 0.01, Iterations: iters, FaithfulAlg1: true,
	})
	if err != nil {
		return err
	}
	hve := map[int]*ptycho.Result{}
	for _, extra := range []int{1, 2} {
		extra := extra
		r, err := ds.Reconstruct(ptycho.ReconstructOptions{
			Algorithm: ptycho.HaloVoxelExchange, MeshRows: 2, MeshCols: 2,
			StepSize: 0.01, Iterations: iters, HVEExtraRows: extra,
		})
		if err != nil {
			return err
		}
		hve[extra] = r
	}
	const band = 6
	base := ds.ResidualBorderRatio(serial, 0, 2, 2, band)
	gdScore := ds.ResidualBorderRatio(gd, 0, 2, 2, band)
	pairs := [][2]string{
		{"serial border-error ratio (artifact-free reference)", fmt.Sprintf("%.3f", base)},
		{"Gradient Decomposition border-error ratio", fmt.Sprintf("%.3f (%.2fx serial)", gdScore, gdScore/base)},
	}
	for _, extra := range []int{2, 1} {
		score := ds.ResidualBorderRatio(hve[extra], 0, 2, 2, band)
		pairs = append(pairs, [2]string{
			fmt.Sprintf("Halo Voxel Exchange border-error ratio (%d extra rows)", extra),
			fmt.Sprintf("%.3f (%.2fx serial)", score, score/base),
		})
	}
	pairs = append(pairs,
		[2]string{"serial relative error vs truth", fmt.Sprintf("%.4f", serial.RelativeErrorTo(ds, 0))},
		[2]string{"GD relative error vs truth", fmt.Sprintf("%.4f", gd.RelativeErrorTo(ds, 0))},
		[2]string{"HVE relative error vs truth (1 extra row)", fmt.Sprintf("%.4f", hve[1].RelativeErrorTo(ds, 0))},
	)
	report.KV(os.Stdout, "Fig 8: border artifacts (functional run, 2x2 mesh; higher ratio = error piled at tile borders)", pairs)
	if outDir == "" {
		return nil
	}
	if err := ptycho.SavePNG(filepath.Join(outDir, "fig8_hve_phase.png"),
		ptycho.PhaseImage(hve[1].Slices[0])); err != nil {
		return err
	}
	if err := ptycho.SavePNG(filepath.Join(outDir, "fig8_gd_phase.png"),
		ptycho.PhaseImage(gd.Slices[0])); err != nil {
		return err
	}
	return ptycho.SavePNG(filepath.Join(outDir, "fig8_truth_phase.png"),
		ptycho.PhaseImage(ds.GroundTruthSlice(0)))
}

// fig9 runs the functional convergence study: Gradient Decomposition
// with three communication frequencies (Alg 1's T).
func fig9(outDir string, quick bool) error {
	scanN, iters := 6, 20
	if quick {
		scanN, iters = 4, 10
	}
	ds, err := ptycho.SimulateDataset(ptycho.SimulateOptions{
		ScanCols: scanN, ScanRows: scanN, OverlapRatio: 0.75,
		WindowN: 16, Slices: 1, Phantom: ptycho.PhantomRandom, Seed: 5,
	})
	if err != nil {
		return err
	}
	perTile := ds.NumLocations()/4 + 1 // ~ one round per location
	freqs := []struct {
		name   string
		rounds int
	}{
		{"every-location", perTile},
		{"twice-per-iter", 2},
		{"once-per-iter", 1},
	}
	var series []report.Series
	for _, f := range freqs {
		res, err := ds.Reconstruct(ptycho.ReconstructOptions{
			Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
			StepSize: 0.01, Iterations: iters,
			RoundsPerIteration: f.rounds, FaithfulAlg1: true,
		})
		if err != nil {
			return err
		}
		s := report.Series{Name: f.name}
		for i, c := range res.CostHistory {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, c)
		}
		series = append(series, s)
	}
	report.SeriesTable(os.Stdout,
		"Fig 9: convergence (cost F(V)) vs iteration for three pass frequencies (functional run)",
		"iteration", series)
	if outDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(outDir, "fig9_convergence.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "iteration,every_location,twice_per_iter,once_per_iter")
	for i := 0; i < iters; i++ {
		fmt.Fprintf(f, "%d,%.6g,%.6g,%.6g\n", i+1, series[0].Y[i], series[1].Y[i], series[2].Y[i])
	}
	return nil
}

func writeCSVs(outDir string, tables map[string][]perfmodel.Row) error {
	if outDir == "" {
		return nil
	}
	for name, rows := range tables {
		f, err := os.Create(filepath.Join(outDir, name))
		if err != nil {
			return err
		}
		report.PerfCSV(f, rows)
		f.Close()
	}
	return nil
}

// ablation prints the design-choice sensitivity studies: the Gradient
// Decomposition halo width (memory/communication) and the Halo Voxel
// Exchange redundant-row count (redundant compute).
func ablation(outDir string, _ bool) error {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	cfg.SimIterations = 1

	halos := []float64{300, 600, 900, 1200, 2400}
	haloPts := cfg.HaloSensitivity(462, halos)
	var haloSeries []report.Series
	mem := report.Series{Name: "memory(GB)"}
	comm := report.Series{Name: "comm(MB/iter)"}
	for _, p := range haloPts {
		mem.X = append(mem.X, p.HaloPM)
		mem.Y = append(mem.Y, p.MemoryGB)
		comm.X = append(comm.X, p.HaloPM)
		comm.Y = append(comm.Y, p.CommBytesPerIter/1e6)
	}
	haloSeries = append(haloSeries, mem, comm)
	report.SeriesTable(os.Stdout,
		"Ablation: GD halo width at 462 GPUs (paper uses 600 pm — the minimum covering the probe)",
		"halo(pm)", haloSeries)

	rowsPts := cfg.ExtraRowsSensitivity(198, []int{0, 1, 2, 3, 4})
	var rowSeries []report.Series
	red := report.Series{Name: "redundant(%)"}
	rmem := report.Series{Name: "memory(GB)"}
	for _, p := range rowsPts {
		red.X = append(red.X, float64(p.ExtraRows))
		red.Y = append(red.Y, p.RedundantPercent)
		rmem.X = append(rmem.X, float64(p.ExtraRows))
		rmem.Y = append(rmem.Y, p.MemoryGB)
	}
	rowSeries = append(rowSeries, red, rmem)
	report.SeriesTable(os.Stdout,
		"Ablation: HVE extra probe-location rows at 198 GPUs (paper uses 2)",
		"rows", rowSeries)
	return nil
}

// frontier quantifies the paper's motivation: the largest reconstruction
// that fits per-GPU memory at each scale, for both methods, at the
// paper's scan density. Gradient Decomposition's smaller footprint buys
// strictly higher achievable resolution everywhere, and Halo Voxel
// Exchange additionally hits its tile-size wall.
func frontier(outDir string, _ bool) error {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	pts := cfg.Frontier([]int{6, 54, 198, 462, 924, 4158})
	gd := report.Series{Name: "GD max px"}
	hve := report.Series{Name: "HVE max px"}
	adv := report.Series{Name: "advantage"}
	for _, p := range pts {
		gd.X = append(gd.X, float64(p.GPUs))
		gd.Y = append(gd.Y, float64(p.MaxImageGD))
		hve.X = append(hve.X, float64(p.GPUs))
		hve.Y = append(hve.Y, float64(p.MaxImageHVE))
		adv.X = append(adv.X, float64(p.GPUs))
		adv.Y = append(adv.Y, p.ResolutionAdvantage)
	}
	report.SeriesTable(os.Stdout,
		"Feasibility frontier: largest image edge (px) fitting 16 GB/GPU at the paper's scan density",
		"GPUs", []report.Series{gd, hve, adv})

	// The sharper frontier: what resolution fits a wall-clock budget
	// (the paper's "near real-time" guidance scenario), choosing the
	// best GPU count from Summit's pool for each method.
	pool := []int{6, 24, 54, 126, 198, 462, 924, 4158}
	tb := cfg.TimeBudget([]float64{2.5, 5, 15, 60}, pool)
	gdT := report.Series{Name: "GD max px"}
	hveT := report.Series{Name: "HVE max px"}
	for _, p := range tb {
		gdT.X = append(gdT.X, p.BudgetMin)
		gdT.Y = append(gdT.Y, float64(p.MaxImageGD))
		hveT.X = append(hveT.X, p.BudgetMin)
		hveT.Y = append(hveT.Y, float64(p.MaxImageHVE))
	}
	report.SeriesTable(os.Stdout,
		"Time-budget frontier: largest image edge reconstructable within a wall-clock budget (0 = infeasible at any size)",
		"budget(min)", []report.Series{gdT, hveT})
	return nil
}
