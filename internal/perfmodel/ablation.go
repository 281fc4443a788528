package perfmodel

// Ablations for two design choices: the Gradient Decomposition halo
// width (memory/communication trade-off) and the Halo Voxel Exchange
// redundant-row count (compute/quality trade-off).

// HaloPoint is one row of the halo-width sensitivity sweep.
type HaloPoint struct {
	HaloPM           float64
	MemoryGB         float64
	CommBytesPerIter float64 // total gradient bytes exchanged per rank per iteration
	RuntimeMin       float64
}

// HaloSensitivity sweeps the Gradient Decomposition halo width at a
// fixed GPU count. Wider halos grow the per-GPU footprint and the pass
// traffic quadratically in the overlap band while leaving compute
// unchanged — the reason the paper's 600 pm halo (just covering the
// probe) is the sweet spot.
func (c Config) HaloSensitivity(gpus int, haloPMs []float64) []HaloPoint {
	out := make([]HaloPoint, 0, len(haloPMs))
	for _, halo := range haloPMs {
		cfg := c
		cfg.HaloGDPM = halo
		g := cfg.geom(gpus, halo)
		s := float64(cfg.Spec.Slices)
		bytesV := g.extW * minf(2*g.haloPx, g.extH) * s * cfg.Cal.VoxelBytes
		bytesH := g.extH * minf(2*g.haloPx, g.extW) * s * cfg.Cal.VoxelBytes
		row := cfg.GDRow(gpus)
		out = append(out, HaloPoint{
			HaloPM:           halo,
			MemoryGB:         cfg.MemoryGDGB(gpus),
			CommBytesPerIter: 2 * (bytesV + bytesH),
			RuntimeMin:       row.RuntimeMin,
		})
	}
	return out
}

// ExtraRowsPoint is one row of the HVE redundancy sweep.
type ExtraRowsPoint struct {
	ExtraRows        int
	MemoryGB         float64
	RedundantLocs    float64 // extra probe locations per GPU
	RedundantPercent float64 // redundant compute relative to owned work
	RuntimeMin       float64
	NA               bool
}

// ExtraRowsSensitivity sweeps the Halo Voxel Exchange redundant-row
// count at a fixed GPU count: more rows mean more redundant compute and
// memory (the paper's Figs 2(d)-(e) argument) but better tile
// consistency.
func (c Config) ExtraRowsSensitivity(gpus int, rows []int) []ExtraRowsPoint {
	out := make([]ExtraRowsPoint, 0, len(rows))
	for _, er := range rows {
		cfg := c
		cfg.HVEExtraRows = er
		g := cfg.geom(gpus, cfg.HaloHVEPM)
		extra := cfg.hveExtraLocs(g)
		row := cfg.HVERow(gpus)
		out = append(out, ExtraRowsPoint{
			ExtraRows:        er,
			MemoryGB:         row.MemoryGB,
			RedundantLocs:    extra,
			RedundantPercent: 100 * extra / g.locsPerGPU,
			RuntimeMin:       row.RuntimeMin,
			NA:               row.NA,
		})
	}
	return out
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
