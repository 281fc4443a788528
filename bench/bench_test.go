package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeRuns memoizes the -scale 0.02 runs so the tests below share them.
var smokeRuns sync.Map // key -> *smokeEntry

type smokeEntry struct {
	once sync.Once
	res  *result
	err  error
}

func smokeRun(t *testing.T, workload string, traced bool, seed int64, repeat int) *result {
	t.Helper()
	key := fmt.Sprintf("%s/traced=%v/seed=%d/#%d", workload, traced, seed, repeat)
	v, _ := smokeRuns.LoadOrStore(key, &smokeEntry{})
	e := v.(*smokeEntry)
	e.once.Do(func() {
		e.res, e.err = runWorkload(context.Background(), runConfig{
			workload: workload, seed: seed, seconds: 0.05, scale: 0.02,
			traced: traced, setups: 1, outDir: t.TempDir(),
		})
	})
	if e.err != nil {
		t.Fatalf("%s: %v", key, e.err)
	}
	return e.res
}

// TestSmoke runs all eight workloads, untraced and traced, at a fiftieth
// of their size: every catalogue metric must be reported, finite and
// well named, and every output correct. The workloads run side by side
// to keep the test short; nothing here looks at how long anything took.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				res := smokeRun(t, w.name, traced, 1, 0)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d %v", traced, res.Correct, res.Attempted, res.Failed, res.failures)
				}
				if err := res.check(catalogueFor(traced)); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
				for name, v := range res.Metrics {
					if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
						t.Errorf("metric %q unit %q is badly named", name, v.Unit)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
				}
			}
			if v := smokeRun(t, w.name, false, 1, 0).Metrics; v["op_ms_p50"].Value <= 0 || v["ops_per_s"].Value <= 0 || v["setup_s"].Value <= 0 {
				t.Errorf("an end-to-end metric is not positive: %v", v)
			}
		})
	}
}

// TestSeedMovesNumbersNotWork: the same seed repeats costs and message
// counts exactly; another seed changes the dataset's bytes and costs
// and leaves every count alone.
func TestSeedMovesNumbersNotWork(t *testing.T) {
	t.Parallel()
	const w = "svc-small-jobs" // the cheapest traced run; every probe runs on every workload's inputs
	a, b, c := smokeRun(t, w, true, 1, 0), smokeRun(t, w, true, 1, 1), smokeRun(t, w, true, 2, 0)
	for _, name := range []string{"bench.final_cost", "solver.final_cost"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: seed 1 gave %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
		if a.Metrics[name].Value == c.Metrics[name].Value {
			t.Errorf("%s: seeds 1 and 2 both gave %v", name, a.Metrics[name].Value)
		}
	}
	for _, name := range []string{"gradsync.bytes_per_iter", "gradsync.msgs_per_iter", "halo.bytes_per_iter", "halo.msgs_per_iter", "multislice.bytes_per_loc_computed"} {
		if x, y, z := a.Metrics[name].Value, b.Metrics[name].Value, c.Metrics[name].Value; x != y || x != z || x <= 0 {
			t.Errorf("%s: %v, %v, %v across runs, want one positive count", name, x, y, z)
		}
	}
	wl, _ := findWorkload(w)
	one, err := newInputs(wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := newInputs(wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.dataset) != len(two.dataset) || bytes.Equal(one.dataset, two.dataset) {
		t.Errorf("datasets of seeds 1 and 2: %d and %d bytes, equal=%v; want same size, different bytes", len(one.dataset), len(two.dataset), bytes.Equal(one.dataset, two.dataset))
	}
}

// TestWrongOutputsAreCounted: a truncated or poisoned cost history and a
// corrupted object each fail their operation, and a failed operation
// makes the run's result incorrect.
func TestWrongOutputsAreCounted(t *testing.T) {
	good := []float64{9, 7, 6, 5.5, 5.2, 5}
	ref := []float64{9, 7, 6, 5.5, 5.2}
	if r := checkCosts(good, 6, ref); r != "" {
		t.Fatalf("good history rejected: %s", r)
	}
	bad := map[string][]float64{
		"truncated":    good[:4],
		"not finite":   {9, 7, math.NaN(), 5.5, 5.2, 5},
		"rising":       {5, 6, 7, 8, 9, 10},
		"off the path": {9, 7.0001, 6, 5.5, 5.2, 5},
	}
	for name, hist := range bad {
		if checkCosts(hist, 6, ref) == "" {
			t.Errorf("%s history accepted", name)
		}
	}
	object := []byte("OBJCKv1 pretend object bytes")
	flipped := append([]byte(nil), object...)
	flipped[9] ^= 1
	if checkObject(object, object) != "" || checkObject(flipped, object) == "" || checkObject(nil, object) == "" {
		t.Error("checkObject does not tell an identical object from a corrupted or empty one")
	}
	p := &phase{}
	p.judge("")
	p.judge(checkObject(flipped, object))
	if res := newResult(p); res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.failures) != 1 {
		t.Errorf("result after one failure of two: %+v", res)
	}
}

// TestManifest: BENCHMARK.json is the catalogue, and the catalogue is
// inside the limits the driver puts on a manifest.
func TestManifest(t *testing.T) {
	want := currentManifest()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 || len(want.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics, want at most 128 and 16", n, len(want.EndToEnd))
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, manifest %d bytes", want.RunSeconds, len(raw))
	}
	seen := map[string]bool{}
	named := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range want.Workloads {
		named(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		named(m.Name)
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		named(m.Name)
		if m.Bound != 0 || !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 6, 8, 7}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0]
	if got, want := quartileSpread([]float64{20, 10, 12, 11}), (18.0-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestSummarizeIgnoresNoisySegments: interference that slows a few
// segments of a run does not move the summary.
func TestSummarizeIgnoresNoisySegments(t *testing.T) {
	start := time.Unix(0, 0)
	build := func(slow map[int]bool) *phase {
		p := &phase{start: start}
		now, from := start, start
		for i := range 200 {
			d := 10 * time.Millisecond
			if slow[i/20] {
				d = 15 * time.Millisecond
			}
			now = now.Add(d)
			p.done(now, d)
			if i%20 == 19 {
				p.cut(from, now)
				from = now
			}
		}
		return p
	}
	q50, q90, qRate := build(nil).summarize()
	n50, n90, nRate := build(map[int]bool{2: true, 3: true, 7: true}).summarize()
	if q50 != n50 || q90 != n90 || math.Abs(qRate-nRate) > 1e-9 || q50 != 10 || math.Abs(qRate-100) > 1e-9 {
		t.Errorf("quiet run: %v %v %v; run with three slow segments: %v %v %v", q50, q90, qRate, n50, n90, nRate)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m        metric
		old, new []float64
		want     string
	}{
		{lower, []float64{100, 101}, []float64{100.5, 101.5}, "same"},
		{lower, []float64{100, 101}, []float64{115, 116}, "worse"},
		{lower, []float64{100, 101}, []float64{90, 91}, "better"},
		{lower, []float64{100, 130}, []float64{90, 91}, "unresolved"},
		{higher, []float64{100, 101}, []float64{85, 86}, "worse"},
		{higher, []float64{100, 101}, []float64{110, 111}, "better"},
		{lower, []float64{100}, []float64{100.5}, "same"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}
}
