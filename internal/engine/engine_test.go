package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/dataio"
	"ptychopath/internal/gradsync"
	"ptychopath/internal/grid"
	"ptychopath/internal/halo"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire/wiretest"
)

const (
	testIters   = 6
	testStep    = 0.01
	testTimeout = time.Minute
	// testProbeStep is the probe refinement step of the serial-probe case.
	testProbeStep = 0.05
)

// problem is a 4x4-scan, n-pixel-window, 2-slice dataset: from n = 16
// large enough for a 2x2 mesh to satisfy the hve tile constraint.
func problem(t *testing.T, n int) *solver.Problem {
	t.Helper()
	radius := float64(n) / 2
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: 4, Rows: 4, StepPix: scan.StepForOverlap(radius, 0.7), RadiusPix: radius, MarginPix: radius + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 5), WindowN: n, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// cases is the engine column of ROADMAP 5(a)'s matrix. direct runs the
// engine package itself with the options jobs.execute used before the
// seam existed.
var cases = []struct {
	name   string
	spec   Spec
	direct func(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) ([]*grid.Complex2D, []float64)
}{
	{"serial", Spec{Algorithm: "serial"}, func(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
		r, err := solver.Reconstruct(prob, init, solver.Options{
			StepSize: testStep, Iterations: testIters, Mode: solver.Batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Slices, r.CostHistory
	}},
	{"serial-sequential", Spec{Algorithm: "serial", SerialSequential: true}, directSerial(solver.Sequential, 0)},
	{"serial-probe", Spec{Algorithm: "serial", ProbeRefineStep: testProbeStep}, directSerial(solver.Batch, testProbeStep)},
	{"gd-2x2", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 1}, directGD(gradsync.ModeBatch, 1, 0)},
	{"gd-2x2-rounds4-intra2", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 4, IntraWorkers: 2}, directGD(gradsync.ModeBatch, 4, 2)},
	{"gd-2x2-faithful", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 1, FaithfulAlg1: true}, directGD(gradsync.ModeFaithful, 1, 0)},
	{"hve-2x2", Spec{Algorithm: "hve", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 1}, func(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
		mesh, err := NewMesh(prob, Spec{MeshRows: 2, MeshCols: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := halo.Reconstruct(prob, init, halo.Options{
			Mesh: mesh, HaloWidth: mesh.Halo, ExtraRows: 1,
			StepSize: testStep, Iterations: testIters, ExchangesPerIteration: 1,
			Timeout: testTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Slices, r.CostHistory
	}},
	{"gd-2x2-intra3", Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, RoundsPerIteration: 1, IntraWorkers: 3}, directGD(gradsync.ModeBatch, 1, 3)},
}

func directSerial(mode solver.UpdateMode, probeStep float64) func(*testing.T, *solver.Problem, []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
	return func(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
		r, err := solver.Reconstruct(prob, init, solver.Options{
			StepSize: testStep, Iterations: testIters, Mode: mode, ProbeStepSize: probeStep,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Slices, r.CostHistory
	}
}

func directGD(mode gradsync.Mode, rounds, intra int) func(*testing.T, *solver.Problem, []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
	return func(t *testing.T, prob *solver.Problem, init []*grid.Complex2D) ([]*grid.Complex2D, []float64) {
		mesh, err := NewMesh(prob, Spec{MeshRows: 2, MeshCols: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := gradsync.Reconstruct(prob, init, gradsync.Options{
			Mesh: mesh, Mode: mode,
			StepSize: testStep, Iterations: testIters,
			RoundsPerIteration: rounds, IntraWorkers: intra,
			Timeout: testTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Slices, r.CostHistory
	}
}

// subProblem is prob restricted to the given locations: what a rank
// that was sent only its shard holds.
func subProblem(prob *solver.Problem, locs []int) *solver.Problem {
	pat := *prob.Pattern
	pat.Locations = nil
	sub := *prob
	sub.Pattern, sub.Meas = &pat, nil
	for _, i := range locs {
		pat.Locations = append(pat.Locations, prob.Pattern.Locations[i])
		sub.Meas = append(sub.Meas, prob.Meas[i])
	}
	return &sub
}

// cropped is init cut down to region.
func cropped(init []*grid.Complex2D, region grid.Rect) []*grid.Complex2D {
	out := make([]*grid.Complex2D, len(init))
	for s, a := range init {
		out[s] = a.Extract(region)
	}
	return out
}

func sameObject(t *testing.T, what string, got, want []*grid.Complex2D) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, want %d", what, len(got), len(want))
	}
	for s := range want {
		if !got[s].Bounds.Eq(want[s].Bounds) || !slices.Equal(got[s].Data, want[s].Data) {
			t.Fatalf("%s: slice %d differs (max diff %g)", what, s, got[s].MaxDiff(want[s]))
		}
	}
}

// TestEngineMatrix runs every engine on a 16-pixel window and again,
// as <engine>-n22, on a 22-pixel one: the Bluestein FFT, which no
// benchmark workload and no CI smoke reaches.
func TestEngineMatrix(t *testing.T) {
	for _, n := range []int{16, 22} {
		engineMatrix(t, n)
	}
}

func engineMatrix(t *testing.T, n int) {
	prob := problem(t, n)
	vacuum := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	for _, c := range cases {
		name := c.name
		if n != 16 {
			name = fmt.Sprintf("%s-n%d", name, n)
		}
		t.Run(name, func(t *testing.T) {
			spec := c.spec
			spec.Iterations, spec.StepSize, spec.Timeout = testIters, testStep, testTimeout

			// (a) The seam adds nothing: Run is the engine's own
			// Reconstruct, bit for bit. A nil init is vacuum.
			wantSlices, wantHist := c.direct(t, prob, vacuum)
			ref, err := Run(prob, nil, spec, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			sameObject(t, "Run vs direct", ref.Slices, wantSlices)
			if !slices.Equal(ref.CostHistory, wantHist) {
				t.Fatalf("Run cost history %v, direct %v", ref.CostHistory, wantHist)
			}

			// (b) Placement adds nothing: one RunRank per rank of any
			// transport, stitched by Assemble, is the same object.
			if spec.Algorithm != "serial" {
				outs := make([]*collective.RankOutcome, spec.MeshRows*spec.MeshCols)
				err := simmpi.Run(len(outs), testTimeout, func(comm *simmpi.Comm) error {
					out, err := RunRank(comm, prob, vacuum, spec, Hooks{})
					outs[comm.Rank()] = out
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Assemble(prob, spec, outs)
				if err != nil {
					t.Fatal(err)
				}
				sameObject(t, "RunRank+Assemble vs Run", res.Slices, ref.Slices)
				if !slices.Equal(res.CostHistory, ref.CostHistory) {
					t.Fatalf("ranks' cost history %v, Run %v", res.CostHistory, ref.CostHistory)
				}
				if res.BytesSent != ref.BytesSent || res.MessagesSent != ref.MessagesSent {
					t.Errorf("ranks sent %d B / %d msgs, Run %d / %d",
						res.BytesSent, res.MessagesSent, ref.BytesSent, ref.MessagesSent)
				}

				// (b') Sharding adds nothing: each rank handed only its
				// Shards share — its locations, and its region of the
				// init or none at all (a vacuum start) — computes the
				// same tile.
				shards, err := Shards(prob, spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, vacuumStart := range []bool{false, true} {
					sharded := make([]*collective.RankOutcome, len(shards))
					err = simmpi.Run(len(shards), testTimeout, func(comm *simmpi.Comm) error {
						sh := shards[comm.Rank()]
						init := cropped(vacuum, sh.Region)
						if vacuumStart {
							init = nil
						}
						out, err := RunRank(comm, subProblem(prob, sh.Locations), init, spec, Hooks{})
						sharded[comm.Rank()] = out
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					res, err = Assemble(prob, spec, sharded)
					if err != nil {
						t.Fatal(err)
					}
					sameObject(t, fmt.Sprintf("sharded RunRank+Assemble (vacuum start %v) vs Run", vacuumStart), res.Slices, ref.Slices)
					if !slices.Equal(res.CostHistory, ref.CostHistory) {
						t.Fatalf("sharded ranks' cost history %v, Run %v", res.CostHistory, ref.CostHistory)
					}
				}
				seen := make([]int, prob.Pattern.N())
				for rank, sh := range shards {
					if !slices.IsSorted(sh.Locations) {
						t.Errorf("rank %d shard locations not ascending: %v", rank, sh.Locations)
					}
					if len(sh.Locations) != outs[rank].Locations {
						t.Errorf("rank %d shard holds %d locations, the rank evaluates %d",
							rank, len(sh.Locations), outs[rank].Locations)
					}
					for _, i := range sh.Locations {
						seen[i]++
					}
				}
				if spec.Algorithm == "gd" && slices.ContainsFunc(seen, func(n int) bool { return n != 1 }) {
					t.Errorf("gd shards do not partition the locations: counts %v", seen)
				}
				if spec.Algorithm == "hve" && slices.Max(seen) < 2 {
					t.Error("hve shards share no location: the extra rows are missing")
				}
			}

			// (c) Interruption adds nothing: cancel after k iterations,
			// resume from the partial object with StartIter k. Not so for
			// faithful Alg. 1: its per-location local updates also land in
			// each rank's halo, which the stitched object does not carry,
			// so a resumed run starts from different halos. Nor for probe
			// refinement: the object alone does not carry the refined probe.
			if spec.FaithfulAlg1 || spec.ProbeRefineStep > 0 {
				return
			}
			const k = 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var iters, snaps []int
			hooks := Hooks{
				Ctx: ctx,
				OnIteration: func(iter int, _ float64) {
					iters = append(iters, iter)
					if iter == k-1 {
						cancel()
					}
				},
				OnSnapshot: func(iter int, _ []*grid.Complex2D) error {
					snaps = append(snaps, iter)
					return nil
				},
			}
			spec.SnapshotEvery = 2
			part, err := Run(prob, nil, spec, hooks)
			if !errors.Is(err, context.Canceled) || part == nil {
				t.Fatalf("cancelled run: result %v, error %v; want partial result and context.Canceled", part, err)
			}
			if len(part.CostHistory) != k {
				t.Fatalf("cancelled run completed %d iterations, want %d", len(part.CostHistory), k)
			}
			hooks.Ctx = nil
			spec.StartIter, spec.Iterations = k, testIters-k
			rest, err := Run(prob, part.Slices, spec, hooks)
			if err != nil {
				t.Fatal(err)
			}
			sameObject(t, "cancel+resume vs uninterrupted", rest.Slices, ref.Slices)
			if got := append(part.CostHistory, rest.CostHistory...); !slices.Equal(got, ref.CostHistory) {
				t.Fatalf("cancel+resume cost history %v, uninterrupted %v", got, ref.CostHistory)
			}
			if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(iters, want) {
				t.Errorf("OnIteration indices %v, want %v (0-based plus StartIter)", iters, want)
			}
			// The cadence counts from each run's first iteration; the
			// reported index carries the offset.
			if want := []int{1, 3, 5}; !slices.Equal(snaps, want) {
				t.Errorf("OnSnapshot indices %v, want %v", snaps, want)
			}
		})
	}
}

// TestNumericsLedger pins every engine's arithmetic across commits, not
// just within one: each cell of {engine} × {n16, n22, n24, n32} ×
// {vacuum start, warm start} holds the SHA-256 of the final object's
// OBJCKv1 bytes and the cost trace in hex floats (testdata/
// numerics.golden). The warm start is the serial run's final object,
// as a job resumed from its checkpoint would begin. A change that moves
// a cell regenerates the file with -update and says which cell and
// why. The comparison is exact on amd64, where Go does not fuse
// multiply-adds; elsewhere the traces must agree to 1e-12 relative and
// the object digests are not compared.
func TestNumericsLedger(t *testing.T) {
	var ledger bytes.Buffer
	for _, n := range []int{16, 22, 24, 32} {
		prob := problem(t, n)
		run := func(spec Spec, init []*grid.Complex2D) *Result {
			t.Helper()
			spec.Iterations, spec.StepSize, spec.Timeout = testIters, testStep, testTimeout
			res, err := Run(prob, init, spec, Hooks{})
			if err != nil {
				t.Fatalf("n%d %+v: %v", n, spec, err)
			}
			return res
		}
		warm := run(cases[0].spec, nil).Slices
		for _, start := range []string{"vacuum", "warm"} {
			for _, c := range cases {
				var init []*grid.Complex2D
				if start == "warm" {
					init = cropped(warm, warm[0].Bounds)
				}
				res := run(c.spec, init)
				object, err := dataio.AppendObject(nil, res.Slices)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&ledger, "%s n%d %s %x", c.name, n, start, sha256.Sum256(object))
				for _, cost := range res.CostHistory {
					fmt.Fprintf(&ledger, " %x", cost)
				}
				ledger.WriteByte('\n')
			}
		}
	}
	if runtime.GOARCH == "amd64" {
		wiretest.Golden(t, "numerics.golden", ledger.Bytes())
		return
	}
	want := strings.Split(strings.TrimSpace(string(wiretest.Frozen(t, "numerics.golden"))), "\n")
	got := strings.Split(strings.TrimSpace(ledger.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d ledger cells, fixture has %d", len(got), len(want))
	}
	for i := range want {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) || !slices.Equal(g[:3], w[:3]) {
			t.Fatalf("cell %q, fixture %q", got[i], want[i])
		}
		for k := 4; k < len(w); k++ {
			gv, gerr := strconv.ParseFloat(g[k], 64)
			wv, werr := strconv.ParseFloat(w[k], 64)
			if gerr != nil || werr != nil {
				t.Fatalf("%s cost field %d: run %q (%v), fixture %q (%v)",
					strings.Join(w[:3], " "), k-4, g[k], gerr, w[k], werr)
			}
			if math.Abs(gv-wv) > 1e-12*math.Abs(wv) {
				t.Errorf("%s iteration %d: cost %v, fixture %v", strings.Join(w[:3], " "), k-4, gv, wv)
			}
		}
	}
}

// TestValidateRejectsWhatTheEngineWould pins the submissions that used
// to be accepted and then die before iteration 0.
func TestValidateRejectsWhatTheEngineWould(t *testing.T) {
	prob := problem(t, 16)
	ok := Spec{Algorithm: "gd", Iterations: 1, StepSize: testStep, MeshRows: 2, MeshCols: 2}
	if err := ok.Validate(prob); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"unknown algorithm":  func(s *Spec) { s.Algorithm = "nope" },
		"zero iterations":    func(s *Spec) { s.Iterations = 0 },
		"negative step":      func(s *Spec) { s.StepSize = -1 },
		"negative rounds":    func(s *Spec) { s.RoundsPerIteration = -1 },
		"mesh beyond image":  func(s *Spec) { s.MeshRows, s.MeshCols = 200, 200 },
		"faithful + intra":   func(s *Spec) { s.FaithfulAlg1, s.IntraWorkers = true, 2 },
		"hve tile too small": func(s *Spec) { s.Algorithm, s.MeshRows, s.MeshCols = "hve", 8, 8 },
	} {
		s := ok
		mutate(&s)
		err := s.Validate(prob)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, rerr := Run(prob, nil, s, Hooks{}); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Validate said %v, Run said %v", name, err, rerr)
		}
	}
	tooSmall := ok
	tooSmall.Algorithm, tooSmall.MeshRows, tooSmall.MeshCols = "hve", 8, 8
	if err := tooSmall.Validate(prob); !errors.Is(err, halo.ErrTileTooSmall) {
		t.Errorf("hve 8x8: got %v, want halo.ErrTileTooSmall", err)
	}
}

// TestSpecJSONKeysAreTheWALs: a Spec serializes under the keys the job
// service's submit records have always used (recovery_test.go's
// pre-sched fixture), so the SETUP payload of ROADMAP item 3 can carry
// the same bytes.
func TestSpecJSONKeysAreTheWALs(t *testing.T) {
	b, err := json.Marshal(Spec{Algorithm: "serial", Iterations: 4, StepSize: 0.01, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"algorithm":"serial","iterations":4,"step_size":0.01}`; string(b) != want {
		t.Errorf("Spec JSON %s, want %s", b, want)
	}
}

// TestRankVacuumCoversItsRegion: a rank given no init builds its vacuum
// over its Shards region, as the grid sends a warm start's tile, not
// over the whole image. Measured as the bytes the ranks allocate beyond
// the same run handed those tiles.
func TestRankVacuumCoversItsRegion(t *testing.T) {
	prob := problem(t, 16)
	spec := Spec{Algorithm: "gd", MeshRows: 3, MeshCols: 3, Iterations: 1, StepSize: testStep, Timeout: testTimeout}
	shards, err := Shards(prob, spec)
	if err != nil {
		t.Fatal(err)
	}
	vacuum := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	inits := make([][]*grid.Complex2D, len(shards))
	var region, full uint64
	for r, sh := range shards {
		inits[r] = cropped(vacuum, sh.Region)
		region += uint64(prob.Slices * 16 * sh.Region.Area())
		full += uint64(prob.Slices * 16 * prob.ImageBounds().Area())
	}
	allocated := func(vacuumStart bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := simmpi.Run(len(shards), testTimeout, func(comm *simmpi.Comm) error {
			init := inits[comm.Rank()]
			if vacuumStart {
				init = nil
			}
			_, err := RunRank(comm, prob, init, spec, Hooks{})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(false) // warm the FFT plans and free lists
	given, own := allocated(false), allocated(true)
	if own > given+(region+full)/2 {
		t.Fatalf("the ranks' own vacuum cost %d B more than handed tiles; their regions total %d B, a whole image each %d B",
			own-given, region, full)
	}
}
