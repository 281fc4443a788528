// Command datagen synthesizes a ptychography dataset — PbTiO3-like
// phantom, raster scan, defocused probe, multi-slice diffraction — and
// writes it as a closed PTYCHSv2 stream (opening, CRC-framed chunks of
// frames, end marker): the one dataset container, which ptychorecon
// reads, POST /v1/jobs accepts and ptychofeed replays (see
// docs/FORMATS.md and docs/HTTP_API.md).
//
// Usage:
//
//	datagen -o dataset.ptycho [-scan 8] [-overlap 0.75] [-slices 2]
//	        [-window 16] [-radius 8] [-phantom pbtio3|random]
//	        [-dose 0] [-seed 1]
//	        [-info existing.ptycho]
//
// With -info, datagen prints a summary of an existing file instead of
// generating one.
package main

import (
	"flag"
	"fmt"
	"os"

	"ptychopath/internal/dataio"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

func main() {
	out := flag.String("o", "dataset.ptycho", "output file")
	scanN := flag.Int("scan", 8, "scan grid edge (scan x scan probe locations)")
	overlap := flag.Float64("overlap", 0.75, "linear probe overlap ratio [0,1)")
	slices := flag.Int("slices", 2, "object slices")
	window := flag.Int("window", 16, "probe window / detector edge, pixels")
	radius := flag.Float64("radius", 8, "probe circle radius, pixels")
	kind := flag.String("phantom", "pbtio3", "phantom: pbtio3 or random")
	dose := flag.Float64("dose", 0, "mean electrons per pattern (0 = noise-free)")
	seed := flag.Int64("seed", 1, "random seed")
	info := flag.String("info", "", "print a summary of an existing dataset file and exit")
	flag.Parse()

	if *info != "" {
		if err := printInfo(*info); err != nil {
			fatal(err)
		}
		return
	}
	if err := generate(*out, *scanN, *overlap, *slices, *window, *radius, *kind, *dose, *seed); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

func generate(out string, scanN int, overlap float64, slices, window int,
	radius float64, kind string, dose float64, seed int64) error {
	step := scan.StepForOverlap(radius, overlap)
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: scanN, Rows: scanN, StepPix: step, RadiusPix: radius,
		MarginPix: float64(window)/2 + 2,
	})
	if err != nil {
		return err
	}
	var obj *phantom.Object
	switch kind {
	case "pbtio3":
		cfg := phantom.DefaultLeadTitanate(pat.ImageW, pat.ImageH, slices)
		cfg.Seed = seed
		if pat.ImageW < 160 {
			cfg.UnitCellPix = float64(pat.ImageW) / 5
		}
		if obj, err = phantom.LeadTitanate(cfg); err != nil {
			return err
		}
	case "random":
		obj = phantom.RandomObject(pat.ImageW, pat.ImageH, slices, seed)
	default:
		return fmt.Errorf("unknown phantom %q (want pbtio3 or random)", kind)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics:        physics.PaperOptics(),
		Pattern:       pat,
		Object:        obj,
		WindowN:       window,
		DoseElectrons: dose,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	if err := dataio.WriteFile(out, prob); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (PTYCHSv2): %d locations, %dx%d image, %d slices, window %d (%.1f MB)\n",
		out, pat.N(), pat.ImageW, pat.ImageH, slices, window,
		float64(fi.Size())/1e6)
	return nil
}

func printInfo(path string) error {
	prob, err := dataio.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  probe locations     %d\n", prob.Pattern.N())
	fmt.Printf("  image extent        %dx%d px\n", prob.Pattern.ImageW, prob.Pattern.ImageH)
	fmt.Printf("  object slices       %d\n", prob.Slices)
	fmt.Printf("  window / detector   %dx%d px\n", prob.WindowN, prob.WindowN)
	fmt.Printf("  scan step           %.3f px\n", prob.Pattern.StepPix)
	fmt.Printf("  probe radius        %.3f px\n", prob.Pattern.RadiusPix)
	overlap := 1 - prob.Pattern.StepPix/(2*prob.Pattern.RadiusPix)
	fmt.Printf("  overlap ratio       %.0f%%\n", 100*overlap)
	fmt.Printf("  propagator          %v\n", prob.Prop != nil)
	return nil
}
