// Package perfmodel reproduces the paper's evaluation at Summit scale:
// Tables II and III (runtime, per-GPU memory, strong-scaling efficiency
// for Gradient Decomposition and Halo Voxel Exchange on both Lead
// Titanate datasets), Fig 7a (strong-scaling curves) and Fig 7b (runtime
// breakdown with and without APPP).
//
// Runtimes come from replaying each algorithm's communication schedule
// on the discrete-event simulator (internal/des) with compute times from
// the calibrated model in internal/cluster (whose package comment
// states the calibration); memory footprints come from the analytic
// accounting below.
package perfmodel

import (
	"fmt"
	"math"

	"ptychopath/internal/cluster"
	"ptychopath/internal/des"
)

// Config parameterizes a model run.
type Config struct {
	Machine cluster.Machine
	Cal     cluster.Calibration
	Spec    cluster.DatasetSpec
	// Iterations is the reconstruction length the paper reports (100).
	Iterations int
	// SimIterations is how many iterations the DES actually replays
	// before extrapolating (>= 1; passes reach steady state quickly).
	SimIterations int
	// HaloGDPM / HaloHVEPM are the halo widths in picometers
	// (paper: 600 and 890).
	HaloGDPM, HaloHVEPM float64
	// HVEExtraRows is the baseline's extra probe-location rows (2).
	HVEExtraRows int
}

// DefaultConfig returns the paper's experimental configuration for a
// dataset.
func DefaultConfig(spec cluster.DatasetSpec) Config {
	return Config{
		Machine:       cluster.Summit(),
		Cal:           cluster.DefaultCalibration(),
		Spec:          spec,
		Iterations:    100,
		SimIterations: 2,
		HaloGDPM:      600,
		HaloHVEPM:     890,
		HVEExtraRows:  2,
	}
}

// Breakdown is the per-GPU average runtime split (minutes over the full
// reconstruction), matching Fig 7b's bar categories.
type Breakdown struct {
	ComputeMin float64
	WaitMin    float64
	CommMin    float64
}

// Total returns the summed breakdown.
func (b Breakdown) Total() float64 { return b.ComputeMin + b.WaitMin + b.CommMin }

// Row is one column of Tables II/III.
type Row struct {
	Nodes         int
	GPUs          int
	MemoryGB      float64
	RuntimeMin    float64
	EfficiencyPct float64
	NA            bool
	Breakdown     Breakdown
}

// geometry captures the derived per-GPU decomposition quantities.
type geometry struct {
	rows, cols   int
	tileW, tileH float64 // interior tile, pixels
	extW, extH   float64 // halo-extended tile, pixels
	haloPx       float64
	locsPerGPU   float64
	scanTileW    float64 // probe locations per tile row
	scanTileH    float64
}

func (c Config) geom(gpus int, haloPM float64) geometry {
	rows, cols := cluster.MostSquareGrid(gpus)
	h := haloPM / c.Spec.PixelSizePM
	tw := float64(c.Spec.ImageW) / float64(cols)
	th := float64(c.Spec.ImageH) / float64(rows)
	ew := math.Min(tw+2*h, float64(c.Spec.ImageW))
	eh := math.Min(th+2*h, float64(c.Spec.ImageH))
	return geometry{
		rows: rows, cols: cols,
		tileW: tw, tileH: th, extW: ew, extH: eh, haloPx: h,
		locsPerGPU: float64(c.Spec.Locations) / float64(gpus),
		scanTileW:  float64(c.Spec.ScanCols) / float64(cols),
		scanTileH:  float64(c.Spec.ScanRows) / float64(rows),
	}
}

// hveExtraLocs models the baseline's additional probe locations per tile
// for ExtraRows rows of neighbors around the tile boundary.
func (c Config) hveExtraLocs(g geometry) float64 {
	er := float64(c.HVEExtraRows)
	return er*(g.scanTileW+g.scanTileH) + er*er
}

// MemoryGDGB returns the Gradient Decomposition per-GPU footprint:
// owned measurements (compact detector precision), object + gradient
// buffer on the extended tile, staging buffers for the halo bands, and
// the fixed model overhead (probe, checkpointed wavefront stack, FFT
// workspaces).
func (c Config) MemoryGDGB(gpus int) float64 {
	g := c.geom(gpus, c.HaloGDPM)
	meas := g.locsPerGPU * c.Spec.MeasBytesPerLocation(c.Cal)
	extA := g.extW * g.extH
	tileA := g.tileW * g.tileH
	s := float64(c.Spec.Slices)
	tiles := 2 * extA * s * c.Cal.VoxelBytes
	staging := 2 * (extA - tileA) * s * c.Cal.VoxelBytes
	return (meas+tiles+staging)/1e9 + c.Cal.FixedOverheadGB
}

// MemoryHVEGB returns the Halo Voxel Exchange per-GPU footprint: the
// wider halo, the extra probe locations' measurements, and one-way paste
// staging.
func (c Config) MemoryHVEGB(gpus int) float64 {
	g := c.geom(gpus, c.HaloHVEPM)
	nAll := g.locsPerGPU + c.hveExtraLocs(g)
	meas := nAll * c.Spec.MeasBytesPerLocation(c.Cal)
	extA := g.extW * g.extH
	tileA := g.tileW * g.tileH
	s := float64(c.Spec.Slices)
	tiles := 2 * extA * s * c.Cal.VoxelBytes
	staging := (extA - tileA) * s * c.Cal.VoxelBytes
	return (meas+tiles+staging)/1e9 + c.Cal.FixedOverheadGB
}

// perLocSeconds returns the modeled gradient cost of one probe location
// at the given per-GPU working set.
func (c Config) perLocSeconds(wsGB float64) float64 {
	thr := c.Cal.BaseFlops * c.Cal.Scale(c.Spec.Name) * c.Cal.CacheFactor(wsGB)
	return c.Spec.FlopsPerLocation() / thr
}

// jitter returns a deterministic per-rank uniform value in [0, 1).
func jitter(rank int) float64 {
	z := uint64(rank)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return float64(z>>11) / float64(1<<53)
}

const (
	tagVF = 1
	tagVB = 2
	tagHF = 3
	tagHB = 4
	tagHV = 9
)

// GDRow models a Gradient Decomposition run at the given GPU count via
// the DES replay of the pass schedule (with APPP: asynchronous sends, no
// barriers).
func (c Config) GDRow(gpus int) Row { return c.gdRow(gpus, true) }

// GDRowNoAPPP models the ablation of Fig 7b: the directional passes are
// replaced by a barrier-separated global all-reduce of the image
// gradient (the "natural choice" the paper rejects in Sec. V).
func (c Config) GDRowNoAPPP(gpus int) Row { return c.gdRow(gpus, false) }

func (c Config) gdRow(gpus int, appp bool) Row {
	g := c.geom(gpus, c.HaloGDPM)
	ws := c.MemoryGDGB(gpus)
	perLoc := c.perLocSeconds(ws)
	gamma := c.Cal.WaitFrac(int(math.Round(g.locsPerGPU)))
	s := float64(c.Spec.Slices)
	bytesV := int64(g.extW * math.Min(2*g.haloPx, g.extH) * s * c.Cal.VoxelBytes)
	bytesH := int64(g.extH * math.Min(2*g.haloPx, g.extW) * s * c.Cal.VoxelBytes)
	// The with-APPP runs still pay message-injection time: the GPU must
	// stream each overlap buffer onto the wire even when the flight time
	// is hidden by pipelining.
	injectSec := float64(2*bytesV+2*bytesH) / c.Machine.IBBW
	// The no-APPP ablation replaces the pipelined passes with the
	// "natural choice" the paper rejects (Sec. V): a global all-reduce
	// of the gradient buffers — root gather of every extended-tile
	// buffer plus a tree broadcast of the assembled image gradient.
	fullGrad := float64(c.Spec.ImageW) * float64(c.Spec.ImageH) * s * c.Cal.VoxelBytes
	tileBuf := g.extW * g.extH * s * c.Cal.VoxelBytes
	allReduceSec := (float64(gpus)*tileBuf+math.Log2(float64(gpus))*fullGrad)/c.Machine.IBBW +
		2*float64(gpus-1)*c.Machine.LatInter

	simIters := c.SimIterations
	if simIters <= 0 {
		simIters = 1
	}
	rows, cols := g.rows, g.cols
	rankOf := func(r, cc int) int { return r*cols + cc }

	stats, makespan, err := des.Simulate(gpus, c.Machine.Transfer, func(e *des.Env) error {
		r, cc := e.Rank()/cols, e.Rank()%cols
		nLocs := locsFor(e.Rank(), gpus, c.Spec.Locations)
		compute := float64(nLocs) * perLoc * (1 + gamma*jitter(e.Rank()))
		for it := 0; it < simIters; it++ {
			e.Compute(compute + c.Cal.IterOverheadSec)
			if appp {
				// Vertical forward (add downward).
				if r > 0 {
					e.Recv(rankOf(r-1, cc), tagVF)
				}
				if r < rows-1 {
					e.Send(rankOf(r+1, cc), tagVF, bytesV)
				}
				// Vertical backward (replace upward).
				if r < rows-1 {
					e.Recv(rankOf(r+1, cc), tagVB)
				}
				if r > 0 {
					e.Send(rankOf(r-1, cc), tagVB, bytesV)
				}
				// Horizontal forward.
				if cc > 0 {
					e.Recv(rankOf(r, cc-1), tagHF)
				}
				if cc < cols-1 {
					e.Send(rankOf(r, cc+1), tagHF, bytesH)
				}
				// Horizontal backward.
				if cc < cols-1 {
					e.Recv(rankOf(r, cc+1), tagHB)
				}
				if cc > 0 {
					e.Send(rankOf(r, cc-1), tagHB, bytesH)
				}
				e.ChargeComm(injectSec)
			} else {
				e.Barrier()
				e.ChargeComm(allReduceSec)
				e.Barrier()
			}
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("perfmodel: GD DES failed: %v", err))
	}

	scale := float64(c.Iterations) / float64(simIters)
	var avg des.Stats
	for _, st := range stats {
		avg.Compute += st.Compute
		avg.Wait += st.Wait
		avg.Comm += st.Comm
	}
	n := float64(len(stats))
	return Row{
		Nodes:      nodesFor(gpus, c.Machine),
		GPUs:       gpus,
		MemoryGB:   ws,
		RuntimeMin: makespan * scale / 60,
		Breakdown: Breakdown{
			ComputeMin: avg.Compute / n * scale / 60,
			WaitMin:    avg.Wait / n * scale / 60,
			CommMin:    avg.Comm / n * scale / 60,
		},
	}
}

// HVERow models the Halo Voxel Exchange baseline at the given GPU count.
// A Row with NA set reproduces the paper's "NA" entries: the method's
// tile-size constraint (interior tile must exceed the halo plus the
// extra probe-row reach) fails.
func (c Config) HVERow(gpus int) Row {
	g := c.geom(gpus, c.HaloHVEPM)
	reach := g.haloPx + float64(c.HVEExtraRows)*c.Spec.StepPix()
	minTile := math.Min(g.tileW, g.tileH)
	row := Row{Nodes: nodesFor(gpus, c.Machine), GPUs: gpus}
	if reach >= minTile {
		row.NA = true
		return row
	}
	ws := c.MemoryHVEGB(gpus)
	row.MemoryGB = ws
	perLoc := c.perLocSeconds(ws)
	nAll := g.locsPerGPU + c.hveExtraLocs(g)
	gamma := c.Cal.WaitFrac(int(math.Round(nAll)))
	s := float64(c.Spec.Slices)
	pasteBytes := (g.extW*g.extH - g.tileW*g.tileH) * s * c.Cal.VoxelBytes
	// Synchronization contention grows without bound as tiles shrink
	// toward the halo reach (phenomenological; see package comment).
	contention := math.Pow(1/(1-reach/minTile), c.Cal.HVEContentionExp)
	syncSec := contention * (pasteBytes/c.Machine.IBBW + 8*c.Machine.LatInter)

	simIters := c.SimIterations
	if simIters <= 0 {
		simIters = 1
	}
	rows, cols := g.rows, g.cols

	stats, makespan, err := des.Simulate(gpus, c.Machine.Transfer, func(e *des.Env) error {
		r, cc := e.Rank()/cols, e.Rank()%cols
		nLocs := float64(locsFor(e.Rank(), gpus, c.Spec.Locations)) + c.hveExtraLocs(g)
		compute := nLocs * perLoc * (1 + gamma*jitter(e.Rank()))
		per := int64(pasteBytes / 8)
		for it := 0; it < simIters; it++ {
			e.Compute(compute + c.Cal.IterOverheadSec)
			// Synchronous neighborhood paste: barrier models the
			// rendezvous, then the eight neighbor transfers, then the
			// contention penalty.
			e.Barrier()
			for _, d := range [8][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0}, {1, 1}} {
				nr, nc := r+d[0], cc+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				e.Send(nr*cols+nc, tagHV, per)
			}
			for _, d := range [8][2]int{{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 1}, {1, -1}, {1, 0}, {1, 1}} {
				nr, nc := r+d[0], cc+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				e.Recv(nr*cols+nc, tagHV)
			}
			e.ChargeComm(syncSec)
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("perfmodel: HVE DES failed: %v", err))
	}

	scale := float64(c.Iterations) / float64(simIters)
	var avg des.Stats
	for _, st := range stats {
		avg.Compute += st.Compute
		avg.Wait += st.Wait
		avg.Comm += st.Comm
	}
	n := float64(len(stats))
	row.RuntimeMin = makespan * scale / 60
	row.Breakdown = Breakdown{
		ComputeMin: avg.Compute / n * scale / 60,
		WaitMin:    avg.Wait / n * scale / 60,
		CommMin:    avg.Comm / n * scale / 60,
	}
	return row
}

// Table fills rows for the GPU counts and computes strong-scaling
// efficiency relative to the first non-NA row:
// eff(K) = T0*K0 / (T(K)*K) * 100.
func Table(rows []Row) []Row {
	baseIdx := -1
	for i, r := range rows {
		if !r.NA {
			baseIdx = i
			break
		}
	}
	if baseIdx < 0 {
		return rows
	}
	t0 := rows[baseIdx].RuntimeMin * float64(rows[baseIdx].GPUs)
	for i := range rows {
		if rows[i].NA || rows[i].RuntimeMin == 0 {
			continue
		}
		rows[i].EfficiencyPct = t0 / (rows[i].RuntimeMin * float64(rows[i].GPUs)) * 100
	}
	return rows
}

// GDTable runs the Gradient Decomposition model across GPU counts.
func (c Config) GDTable(gpus []int) []Row {
	rows := make([]Row, len(gpus))
	for i, k := range gpus {
		rows[i] = c.GDRow(k)
	}
	return Table(rows)
}

// HVETable runs the Halo Voxel Exchange model across GPU counts.
func (c Config) HVETable(gpus []int) []Row {
	rows := make([]Row, len(gpus))
	for i, k := range gpus {
		rows[i] = c.HVERow(k)
	}
	return Table(rows)
}

// locsFor distributes total locations across gpus deterministically
// (first `total % gpus` ranks own one extra).
func locsFor(rank, gpus, total int) int {
	base := total / gpus
	if rank < total%gpus {
		return base + 1
	}
	return base
}

func nodesFor(gpus int, m cluster.Machine) int {
	return (gpus + m.GPUsPerNode - 1) / m.GPUsPerNode
}

// PaperGPUCountsSmall / Large are the column headers of Tables II / III.
var (
	PaperGPUCountsSmall = []int{6, 24, 54, 126, 198, 462}
	PaperGPUCountsLarge = []int{6, 54, 198, 462, 924, 4158}
	// PaperHVECountsSmall/Large are the columns the paper reports for
	// the baseline (it cannot scale further).
	PaperHVECountsSmall = []int{6, 24, 54, 126}
	PaperHVECountsLarge = []int{6, 54, 198, 462}
)
