// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the halo width
// and the redundant-row count. Paper-scale artifacts (Tables II/III,
// Fig 7) run the calibrated discrete-event model; functional artifacts
// (Fig 8, Fig 9) run the real algorithms at laptop scale.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or print the actual tables with cmd/ptychobench.
package ptycho_test

import (
	"testing"

	"ptychopath"
	"ptychopath/internal/cluster"
	"ptychopath/internal/perfmodel"
)

// BenchmarkTable1DatasetSpecs regenerates Table I's derived quantities
// (sizes, scan steps, flop counts) — trivially fast, present so every
// table has a bench target.
func BenchmarkTable1DatasetSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := cluster.SmallLeadTitanate()
		large := cluster.LargeLeadTitanate()
		_ = small.FlopsPerLocation()
		_ = large.FlopsPerLocation()
		_ = small.StepPix()
		_ = large.StepPix()
	}
}

// BenchmarkTable2SmallDataset regenerates Table II: both methods on the
// small Lead Titanate dataset across the paper's GPU counts.
func BenchmarkTable2SmallDataset(b *testing.B) {
	cfg := perfmodel.DefaultConfig(cluster.SmallLeadTitanate())
	cfg.SimIterations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.GDTable(perfmodel.PaperGPUCountsSmall)
		_ = cfg.HVETable(perfmodel.PaperGPUCountsSmall)
	}
}

// BenchmarkTable3LargeDataset regenerates Table III on the large
// dataset, including the 4158-GPU Gradient Decomposition run.
func BenchmarkTable3LargeDataset(b *testing.B) {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	cfg.SimIterations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.GDTable(perfmodel.PaperGPUCountsLarge)
		_ = cfg.HVETable(perfmodel.PaperHVECountsLarge)
	}
}

// BenchmarkFig7aStrongScaling regenerates the strong-scaling curves for
// both datasets.
func BenchmarkFig7aStrongScaling(b *testing.B) {
	smallCfg := perfmodel.DefaultConfig(cluster.SmallLeadTitanate())
	largeCfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	smallCfg.SimIterations = 1
	largeCfg.SimIterations = 1
	counts := []int{6, 24, 54, 126, 198, 462, 924}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range counts {
			_ = smallCfg.GDRow(k)
			_ = largeCfg.GDRow(k)
		}
	}
}

// BenchmarkFig7bBreakdown regenerates the APPP ablation breakdown at the
// figure's largest GPU count.
func BenchmarkFig7bBreakdown(b *testing.B) {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	cfg.SimIterations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.GDRow(462)
		_ = cfg.GDRowNoAPPP(462)
	}
}

// fig8Dataset builds the functional seam-study dataset once per process.
func fig8Dataset(b *testing.B) *ptycho.Dataset {
	b.Helper()
	ds, err := ptycho.SimulateDataset(ptycho.SimulateOptions{
		ScanCols: 8, ScanRows: 8, OverlapRatio: 0.75,
		ProbeRadiusPix: 12, WindowN: 24, Slices: 1,
		Phantom: ptycho.PhantomLeadTitanate, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkFig8SeamArtifacts regenerates the functional border-artifact
// comparison (reduced iterations; the full figure comes from
// ptychobench -exp fig8).
func BenchmarkFig8SeamArtifacts(b *testing.B) {
	ds := fig8Dataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gd, err := ds.Reconstruct(ptycho.ReconstructOptions{
			Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
			StepSize: 0.01, Iterations: 6, FaithfulAlg1: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		hve, err := ds.Reconstruct(ptycho.ReconstructOptions{
			Algorithm: ptycho.HaloVoxelExchange, MeshRows: 2, MeshCols: 2,
			StepSize: 0.01, Iterations: 6, HVEExtraRows: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = ds.ResidualBorderRatio(gd, 0, 2, 2, 6)
		_ = ds.ResidualBorderRatio(hve, 0, 2, 2, 6)
	}
}

// BenchmarkFig9Convergence regenerates the communication-frequency
// convergence comparison (reduced size).
func BenchmarkFig9Convergence(b *testing.B) {
	ds, err := ptycho.SimulateDataset(ptycho.SimulateOptions{
		ScanCols: 4, ScanRows: 4, OverlapRatio: 0.75,
		WindowN: 16, Slices: 1, Phantom: ptycho.PhantomRandom, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rounds := range []int{1, 2, 4} {
			_, err := ds.Reconstruct(ptycho.ReconstructOptions{
				Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
				StepSize: 0.01, Iterations: 4,
				RoundsPerIteration: rounds, FaithfulAlg1: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationAPPPFunctional measures the functional (goroutine)
// runtime effect of disabling APPP's pipelining — barriers between the
// directional passes.
func BenchmarkAblationAPPPFunctional(b *testing.B) {
	ds := fig8Dataset(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with-appp", false}, {"without-appp", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := ds.Reconstruct(ptycho.ReconstructOptions{
					Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
					StepSize: 0.01, Iterations: 4, DisableAPPP: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMeshSize measures how the functional reconstruction
// scales with worker count on a fixed dataset.
func BenchmarkAblationMeshSize(b *testing.B) {
	ds := fig8Dataset(b)
	for _, mesh := range []struct {
		name       string
		rows, cols int
	}{{"1x1", 1, 1}, {"1x2", 1, 2}, {"2x2", 2, 2}} {
		b.Run(mesh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := ds.Reconstruct(ptycho.ReconstructOptions{
					Algorithm: ptycho.GradientDecomposition,
					MeshRows:  mesh.rows, MeshCols: mesh.cols,
					StepSize: 0.01, Iterations: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCommFrequency measures the communication-volume cost
// of Alg 1's T parameter at the functional level.
func BenchmarkAblationCommFrequency(b *testing.B) {
	ds := fig8Dataset(b)
	for _, rounds := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "rounds-1", 4: "rounds-4", 16: "rounds-16"}[rounds], func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := ds.Reconstruct(ptycho.ReconstructOptions{
					Algorithm: ptycho.GradientDecomposition, MeshRows: 2, MeshCols: 2,
					StepSize: 0.01, Iterations: 2, RoundsPerIteration: rounds,
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.BytesSent
			}
			b.ReportMetric(float64(bytes), "bytes/run")
		})
	}
}

// BenchmarkSerialReference measures the serial reconstruction the
// parallel speedups are judged against.
func BenchmarkSerialReference(b *testing.B) {
	ds := fig8Dataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := ds.Reconstruct(ptycho.ReconstructOptions{
			Algorithm: ptycho.Serial, StepSize: 0.01, Iterations: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHaloWidth regenerates the GD halo-width sensitivity
// sweep (memory and pass traffic vs halo).
func BenchmarkAblationHaloWidth(b *testing.B) {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	cfg.SimIterations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.HaloSensitivity(462, []float64{300, 600, 1200, 2400})
	}
}

// BenchmarkAblationExtraRows regenerates the HVE redundancy sweep.
func BenchmarkAblationExtraRows(b *testing.B) {
	cfg := perfmodel.DefaultConfig(cluster.LargeLeadTitanate())
	cfg.SimIterations = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.ExtraRowsSensitivity(198, []int{0, 1, 2, 4})
	}
}

// BenchmarkIntraWorkerScaling measures the functional speedup of
// multi-core gradient computation inside each Gradient Decomposition
// worker (the stand-in for GPU-internal parallelism).
func BenchmarkIntraWorkerScaling(b *testing.B) {
	ds := fig8Dataset(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := ds.Reconstruct(ptycho.ReconstructOptions{
					Algorithm: ptycho.GradientDecomposition, MeshRows: 1, MeshCols: 2,
					StepSize: 0.01, Iterations: 3, IntraWorkers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
