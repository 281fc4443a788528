// Package cluster models the hardware the paper evaluates on — the Oak
// Ridge Summit supercomputer (6 NVIDIA V100 GPUs per node, NVLink
// intra-node, EDR InfiniBand fat tree between nodes) — together with the
// calibrated performance coefficients the paper-scale experiments use.
//
// Reproduction note: runtimes and memory footprints for Tables II/III
// and Fig 7 come from this model driving the discrete-event simulator in
// internal/des, not from V100s and InfiniBand. The calibration anchors
// the cache-speedup curve and the waiting-time fraction against the
// LARGE Lead Titanate dataset (Table III(a)); the small dataset's rows
// are then predictions.
package cluster

import (
	"fmt"
	"math"

	"ptychopath/internal/multislice"
)

// Machine describes the cluster hardware.
type Machine struct {
	GPUsPerNode int
	MemPerGPUGB float64
	// NVLinkBW and IBBW are effective point-to-point bandwidths in
	// bytes/s; LatIntra and LatInter are per-message latencies in s.
	NVLinkBW float64
	IBBW     float64
	LatIntra float64
	LatInter float64
}

// Summit returns the machine of the paper's Sec. VI-A: 6 V100s per node,
// NVLink 50 GB/s one-way, EDR InfiniBand non-blocking fat tree.
func Summit() Machine {
	return Machine{
		GPUsPerNode: 6,
		MemPerGPUGB: 16,
		NVLinkBW:    50e9,
		IBBW:        12.5e9,
		LatIntra:    5e-6,
		LatInter:    10e-6,
	}
}

// Transfer returns the in-flight time for a message between two global
// GPU ranks, selecting NVLink inside a node and InfiniBand across nodes.
func (m Machine) Transfer(src, dst int, bytes int64) float64 {
	if src/m.GPUsPerNode == dst/m.GPUsPerNode {
		return m.LatIntra + float64(bytes)/m.NVLinkBW
	}
	return m.LatInter + float64(bytes)/m.IBBW
}

// CachePoint anchors the cache-speedup curve: at a per-GPU working set
// of WorkingSetGB the effective throughput is Factor times the
// large-working-set baseline.
type CachePoint struct {
	WorkingSetGB float64
	Factor       float64
}

// Calibration holds every fitted coefficient of the performance model in
// one place. DefaultCalibration documents the fit; experiments may
// perturb fields for sensitivity studies.
type Calibration struct {
	// BaseFlops is the effective per-GPU throughput (flop/s) at the
	// largest working set (poor cache locality). The paper's profiling
	// shows L1 hit rate rising 44%->59% as tiles shrink; CacheCurve
	// captures the resulting speedup.
	BaseFlops float64
	// CacheCurve anchors, descending working set. Interpolated
	// piecewise-linearly in log(working set), clamped at the ends.
	CacheCurve []CachePoint
	// WaitCoeff/WaitExp parameterize the GPU waiting-time fraction
	// gamma(n) = WaitCoeff * (n/WaitRefLoc)^WaitExp for n probe
	// locations per GPU — large tiles mean long, uneven gradient
	// computations and long waits (Fig 7b), tiny tiles almost none.
	WaitCoeff  float64
	WaitExp    float64
	WaitRefLoc float64
	// MeasBytesPerPixel is detector storage per pixel (2 = float16, the
	// compact form needed to fit Table III's footprints).
	MeasBytesPerPixel float64
	// VoxelBytes is GPU object storage per voxel (8 = complex64).
	VoxelBytes float64
	// FixedOverheadGB covers probe, checkpointed wavefront stack and
	// FFT workspaces resident per GPU.
	FixedOverheadGB float64
	// IterOverheadSec is the per-iteration fixed cost (kernel launches,
	// pass bookkeeping).
	IterOverheadSec float64
	// HVEContentionExp shapes the Halo Voxel Exchange synchronization
	// blow-up as tiles approach the halo-size limit (phenomenological;
	// the paper reports the collapse but not its mechanism).
	HVEContentionExp float64
	// ThroughputScale multiplies BaseFlops per dataset (locality
	// differences between image sizes); keyed by dataset name, default 1.
	ThroughputScale map[string]float64
}

// DefaultCalibration returns the coefficients fitted against Table
// III(a) (large Lead Titanate, Gradient Decomposition):
//
//	K     locs/GPU  ws(GB)  paper s/loc  wait-split pure s/loc  factor
//	6     2772      9.14    1.200        0.388                  1.00
//	54    308       1.54    0.357        0.318                  1.22
//	198   84        0.66    0.268        0.262                  1.48
//	462   36        0.42    0.237        0.235                  1.65
//	924   18        0.32    0.233        0.233                  1.67
//
// BaseFlops = FlopsPerLocation(1024, 100) / 0.388 s.
func DefaultCalibration() Calibration {
	flops := multislice.FlopsPerLocation(1024, 100)
	return Calibration{
		BaseFlops: flops / 0.388,
		CacheCurve: []CachePoint{
			{9.14, 1.00},
			{1.54, 1.22},
			{0.66, 1.48},
			{0.42, 1.65},
			{0.32, 1.67},
		},
		WaitCoeff:         0.47,
		WaitExp:           1.3,
		WaitRefLoc:        700,
		MeasBytesPerPixel: 2,
		VoxelBytes:        8,
		FixedOverheadGB:   0.109,
		IterOverheadSec:   0.15,
		HVEContentionExp:  2.78,
		ThroughputScale: map[string]float64{
			"Lead Titanate small": 1.55,
			"Lead Titanate large": 1.0,
		},
	}
}

// CacheFactor interpolates the cache-speedup curve at the given working
// set (GB), piecewise-linear in log(ws), clamped outside the anchors.
func (c Calibration) CacheFactor(wsGB float64) float64 {
	pts := c.CacheCurve
	if len(pts) == 0 {
		return 1
	}
	if wsGB >= pts[0].WorkingSetGB {
		return pts[0].Factor
	}
	last := pts[len(pts)-1]
	if wsGB <= last.WorkingSetGB {
		return last.Factor
	}
	for i := 0; i+1 < len(pts); i++ {
		hi, lo := pts[i], pts[i+1]
		if wsGB <= hi.WorkingSetGB && wsGB >= lo.WorkingSetGB {
			t := (math.Log(hi.WorkingSetGB) - math.Log(wsGB)) /
				(math.Log(hi.WorkingSetGB) - math.Log(lo.WorkingSetGB))
			return hi.Factor + t*(lo.Factor-hi.Factor)
		}
	}
	return last.Factor
}

// WaitFrac returns gamma(n), the waiting-time fraction for a GPU owning
// n probe locations.
func (c Calibration) WaitFrac(nLoc int) float64 {
	if nLoc <= 0 {
		return 0
	}
	return c.WaitCoeff * math.Pow(float64(nLoc)/c.WaitRefLoc, c.WaitExp)
}

// Scale returns the dataset throughput multiplier (1 when unknown).
func (c Calibration) Scale(dataset string) float64 {
	if s, ok := c.ThroughputScale[dataset]; ok && s > 0 {
		return s
	}
	return 1
}

// DatasetSpec captures Table I plus the scan geometry needed by the
// models.
type DatasetSpec struct {
	Name               string
	DetectorN          int // diffraction pattern edge (1024)
	Locations          int
	ScanCols, ScanRows int
	ImageW, ImageH     int
	Slices             int
	PixelSizePM        float64
	// VoxelPM3 documents the voxel size string for Table I.
	VoxelPM3 string
}

// SmallLeadTitanate returns the paper's small dataset: 4158 probe
// locations (63x66 scan), 1536^2 x 100 reconstruction.
func SmallLeadTitanate() DatasetSpec {
	return DatasetSpec{
		Name:      "Lead Titanate small",
		DetectorN: 1024, Locations: 4158,
		ScanCols: 66, ScanRows: 63,
		ImageW: 1536, ImageH: 1536, Slices: 100,
		PixelSizePM: 10, VoxelPM3: "10x10x125 pm^3",
	}
}

// LargeLeadTitanate returns the paper's large dataset: 16632 probe
// locations (132x126 scan), 3072^2 x 100 reconstruction.
func LargeLeadTitanate() DatasetSpec {
	return DatasetSpec{
		Name:      "Lead Titanate large",
		DetectorN: 1024, Locations: 16632,
		ScanCols: 132, ScanRows: 126,
		ImageW: 3072, ImageH: 3072, Slices: 100,
		PixelSizePM: 10, VoxelPM3: "10x10x125 pm^3",
	}
}

// StepPix returns the scan step in pixels.
func (d DatasetSpec) StepPix() float64 { return float64(d.ImageW) / float64(d.ScanCols) }

// FlopsPerLocation returns the per-location gradient cost in flops.
func (d DatasetSpec) FlopsPerLocation() float64 {
	return multislice.FlopsPerLocation(d.DetectorN, d.Slices)
}

// MeasBytesPerLocation returns the stored size of one diffraction
// pattern under the calibration's detector precision.
func (d DatasetSpec) MeasBytesPerLocation(c Calibration) float64 {
	return float64(d.DetectorN*d.DetectorN) * c.MeasBytesPerPixel
}

// MostSquareGrid factors k into rows x cols with rows <= cols minimizing
// the aspect difference — how the decomposition grids the image.
func MostSquareGrid(k int) (rows, cols int) {
	if k <= 0 {
		panic(fmt.Sprintf("cluster: invalid GPU count %d", k))
	}
	best := 1
	for d := 1; d*d <= k; d++ {
		if k%d == 0 {
			best = d
		}
	}
	return best, k / best
}
