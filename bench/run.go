package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ptychopath/internal/obs"
)

// runConfig is one run of one workload: what the driver's command line
// (-workload, -seed, -seconds, -trace) and -scale select.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	traced   bool
	// The untraced run sets the workload up at least setups times and
	// goes on while the set-ups so far took less than setupFloorS in
	// all: a median of three 5 ms set-ups would be mostly timer noise.
	// setup_s is the median.
	setups      int
	setupFloorS float64
	// outDir receives trace-<workload>.json and, while the run lasts,
	// the stacks' WAL and spool directories.
	outDir string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []string
}

// runWorkload executes one run and returns its result. The untraced
// run reports every end-to-end metric; the traced run reports every
// per-layer metric and writes the span file. A returned error means
// the harness could not measure at all; wrong outputs are counted in
// the result instead.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(benchProcs())
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if cfg.traced {
		return runTraced(ctx, w, cfg, work)
	}
	return runUntraced(ctx, w, cfg, work)
}

// setupMax bounds the repetitions of a cheap set-up.
const setupMax = 40

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func runUntraced(ctx context.Context, w *workload, cfg runConfig, work string) (*result, error) {
	var d driver
	var setupS []float64
	for total := 0.0; len(setupS) < cfg.setups || (total < cfg.setupFloorS && len(setupS) < setupMax); {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, _, err = w.setup(ctx, cfg.seed, cfg.scale, filepath.Join(work, fmt.Sprintf("setup-%d", len(setupS)))); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		total += setupS[len(setupS)-1]
	}
	defer d.close()

	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := d.loop(ctx, time.Now().Add(seconds(cfg.seconds)), nil)
	runtime.ReadMemStats(&after)
	rss := peakRSSMB()

	res := newResult(p)
	p50, p90, rate := p.summarize()
	res.set("setup_s", median(setupS))
	res.set("op_ms_p50", p50)
	res.set("op_ms_p90", p90)
	res.set("ops_per_s", rate)
	res.set("peak_rss_mb", rss)
	res.set("alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(max(len(p.ops), 1)))
	return res, res.check(endToEnd)
}

func newResult(p *phase) *result {
	return &result{
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: map[string]metricValue{}, failures: p.failures,
	}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// check makes sure the run reports exactly the catalogue's metrics and
// that every one is a finite number.
func (r *result) check(catalogue []metric) error {
	if len(r.Metrics) != len(catalogue) {
		return fmt.Errorf("run reported %d metrics, catalogue has %d", len(r.Metrics), len(catalogue))
	}
	for _, m := range catalogue {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not reported", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
	}
	return nil
}

// print writes every metric by name with its unit, in catalogue order,
// then the one-line JSON object the driver reads.
func (r *result) print(catalogue []metric) error {
	for _, m := range catalogue {
		fmt.Printf("%-42s %16.6f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runTraced(ctx context.Context, w *workload, cfg runConfig, work string) (*result, error) {
	d, in, err := w.setup(ctx, cfg.seed, cfg.scale, filepath.Join(work, "setup"))
	if err != nil {
		return nil, err
	}
	// The same loop in alternating slices, plain and with spans recorded:
	// the two share whatever the machine does over the run, so the
	// difference of their throughputs is the cost of tracing. Each slice
	// completes at least one operation, so a short run gets fewer.
	slices := 2 * max(1, int(cfg.seconds/2))
	tr := obs.NewTrace(w.name)
	var all phase
	var rates [2][]float64 // plain, traced
	for i := range slices {
		spans := tr
		if i%2 == 0 {
			spans = nil
		}
		p := d.loop(ctx, time.Now().Add(seconds(cfg.seconds/float64(slices))), spans)
		_, _, rate := p.summarize()
		rates[i%2] = append(rates[i%2], rate)
		all.merge(p)
	}
	d.close()

	res := newResult(&all)
	res.set("bench.trace_overhead_pct", (median(rates[0])/median(rates[1])-1)*100)
	res.set("bench.reconcile_ratio", float64(all.partsNS)/float64(max(all.rootNS, 1)))
	res.set("bench.final_cost", all.finalCost)

	pr := &prober{ctx: ctx, w: w, in: in, scale: cfg.scale, dir: work, tr: tr, res: res}
	if err := pr.run(); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, tr); err != nil {
		return nil, err
	}
	return res, res.check(perLayer)
}

func writeTrace(path, process string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, process, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
