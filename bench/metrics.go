package main

// metric is one row of the catalogue. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees. Every workload
// reports every one; "operation" is the workload's own unit (an
// iteration, a job, an accepted 64-frame chunk — see README.md).
//
// The bounds are as wide as the machine is noisy, not as wide as a
// regression that matters: ten runs over ten seeds on the reference box
// spread by 1-6 % on every timing metric in a quiet quarter of an hour
// and by 10-20 % in a loud one (README.md, "How steady it is"). A bound
// has to hold in both, and 25 % is the most the contract allows.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
}

// perLayer is named <layer>.<metric>, the layer being the repo module
// whose public functions the probe calls on the workload's own inputs.
var perLayer = []metric{
	{Name: "fft.fwd2d_us", Unit: "us", Better: "lower"},
	{Name: "fft.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "fft.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "multislice.lossgrad_us", Unit: "us", Better: "lower"},
	{Name: "multislice.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "multislice.fft_share", Unit: "ratio", Better: "lower"},
	{Name: "multislice.bytes_per_loc_computed", Unit: "B", Better: "lower"},
	{Name: "multislice.flops_per_byte_computed", Unit: "FLOP/B", Better: "higher"},
	{Name: "multislice.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "solver.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.kernel_share", Unit: "ratio", Better: "higher"},
	{Name: "solver.self_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "solver.iters_to_tol", Unit: "count", Better: "lower"},
	{Name: "solver.final_cost", Unit: "cost", Better: "lower"},

	{Name: "gradsync.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "gradsync.compute_ms_per_iter_max", Unit: "ms", Better: "lower"},
	{Name: "gradsync.comm_ms_per_iter_max", Unit: "ms", Better: "lower"},
	{Name: "gradsync.imbalance_ratio", Unit: "ratio", Better: "lower"},
	{Name: "gradsync.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "gradsync.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "gradsync.rank_mem_mb_max", Unit: "MB", Better: "lower"},
	{Name: "gradsync.speedup_vs_serial", Unit: "ratio", Better: "higher"},

	{Name: "halo.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "halo.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "halo.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "halo.rank_mem_mb_max", Unit: "MB", Better: "lower"},
	{Name: "halo.redundant_loc_ratio", Unit: "ratio", Better: "lower"},

	{Name: "simmpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "simmpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "simmpi.barrier_us", Unit: "us", Better: "lower"},

	{Name: "transport.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "transport.barrier_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.relay_factor", Unit: "ratio", Better: "lower"},

	{Name: "grid.iter_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.setup_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.setup_bytes_per_rank", Unit: "B", Better: "lower"},
	{Name: "grid.bytes_routed_per_iter", Unit: "B", Better: "lower"},

	{Name: "dataio.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataio.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataio.object_write_ms", Unit: "ms", Better: "lower"},
	{Name: "dataio.chunk_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "dataio.chunk_decode_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "store.log_submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.spool_dataset_ms", Unit: "ms", Better: "lower"},
	{Name: "store.log_iteration_us", Unit: "us", Better: "lower"},
	{Name: "store.syncs_per_job", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes_per_job", Unit: "B", Better: "lower"},

	{Name: "jobs.overhead_ms_mem", Unit: "ms", Better: "lower"},
	{Name: "jobs.overhead_ms_wal", Unit: "ms", Better: "lower"},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.submit_to_done_ms_max", Unit: "ms", Better: "lower"},
	{Name: "jobs.first_job_ratio", Unit: "ratio", Better: "lower"},
	{Name: "jobs.prediction_abs_err_pct", Unit: "%", Better: "lower"},

	{Name: "httpapi.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.upload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "httpapi.get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.object_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "httpapi.notify_lag_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "stream.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.backpressure_ratio", Unit: "ratio", Better: "lower"},
	{Name: "stream.retry_sleep_s", Unit: "s", Better: "lower"},
	{Name: "stream.folds", Unit: "count", Better: "lower"},
	{Name: "stream.iters_while_open", Unit: "count", Better: "higher"},
	{Name: "stream.eof_to_done_s", Unit: "s", Better: "lower"},
	{Name: "stream.ingest_append_frames_per_s", Unit: "1/s", Better: "higher"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.reconcile_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.final_cost", Unit: "cost", Better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// manifest is BENCHMARK.json: the contract the driver reads.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metric           `json:"end_to_end"`
	PerLayer   []metric           `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 10

func currentManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}
