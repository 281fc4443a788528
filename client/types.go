package client

import "time"

// SubmitRequest is the typed job submission: the JSON schema of the
// "params" part of a multipart POST /v1/jobs or /v1/jobs/stream body.
// The server decodes it strictly (unknown fields are bad_params), so a
// typo cannot silently fall back to a default. Zero values select the
// server defaults documented per field.
type SubmitRequest struct {
	// Algorithm is "serial", "gd" (gradient decomposition) or "hve"
	// (halo voxel exchange; batch jobs only). Default "serial".
	Algorithm string `json:"algorithm,omitempty"`
	// Iterations is the iteration count of a batch job, or the TAIL of
	// a streaming job (iterations over the complete set after EOF).
	// Default 20.
	Iterations int `json:"iterations,omitempty"`
	// StepSize is the gradient step. Default 0.01.
	StepSize float64 `json:"step_size,omitempty"`
	// MeshRows and MeshCols shape the tile mesh of the parallel
	// algorithms. Default 2x2.
	MeshRows int `json:"mesh_rows,omitempty"`
	MeshCols int `json:"mesh_cols,omitempty"`
	// RoundsPerIteration is the communication frequency of the parallel
	// algorithms. Default 1.
	RoundsPerIteration int `json:"rounds_per_iteration,omitempty"`
	// IntraWorkers is how many goroutines evaluate the locations of a
	// serial run or of each gd rank. It never changes a result. Default:
	// the server's share of cores.
	IntraWorkers int `json:"intra_workers,omitempty"`
	// CheckpointEvery is the iteration period of OBJCKv1 checkpoints
	// and preview snapshots; 0 selects the server default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Grid runs the parallel engine across registered grid-worker
	// processes (requires a server started with a grid coordinator).
	Grid bool `json:"grid,omitempty"`
	// Priority is the scheduling class: "bulk" (default) or
	// "interactive". Under a weighted-fair server, interactive jobs
	// dispatch ahead of bulk work and may preempt a running bulk job at
	// its next iteration boundary (the preempted job checkpoints and
	// resumes later — no work is lost).
	Priority string `json:"priority,omitempty"`

	// The fields below apply to streaming submissions only.

	// FoldEvery is the number of iterations between ingest folds while
	// the stream is open. Default 1.
	FoldEvery int `json:"fold_every,omitempty"`
	// MaxIterations, when positive, bounds iterations run before the
	// stream closes. 0 means unlimited.
	MaxIterations int `json:"max_iterations,omitempty"`
	// IngestCapacity bounds the job's frame buffer (appends beyond it
	// answer 429 ingest_full). 0 selects the server default.
	IngestCapacity int `json:"ingest_capacity,omitempty"`

	// IdempotencyKey, when non-empty, is sent as the Idempotency-Key
	// header: resubmitting with the same key returns the job the first
	// submission created instead of enqueueing a duplicate. When empty,
	// Submit and SubmitStreaming generate a random key per call so
	// their own automatic retries are replay-safe. Not part of the
	// JSON params (it travels as a header).
	IdempotencyKey string `json:"-"`

	// RequestID, when non-empty, is sent as the X-Request-ID header and
	// becomes the job's trace context (Job.RequestID, the span timeline,
	// the server's log lines). When empty the server assigns one. Like
	// the idempotency key, it travels as a header, not JSON.
	RequestID string `json:"-"`
}

// Job state names, as served in Job.State.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is a point-in-time job summary — the JSON schema of every job
// object the /v1 API returns.
type Job struct {
	ID string `json:"id"`
	// RequestID is the job's trace context: the X-Request-ID of the
	// submission that created it.
	RequestID string `json:"request_id,omitempty"`
	State     string `json:"state"`
	Algorithm string `json:"algorithm"`
	// Grid marks a job running on the distributed worker grid.
	Grid bool `json:"grid,omitempty"`
	// Iter is the completed-iteration count (continuing the original
	// job's count for resumed jobs).
	Iter int `json:"iter"`
	// TotalIters is the planned iteration count of a batch job; 0 for
	// a streaming job while its stream is open.
	TotalIters int     `json:"total_iters,omitempty"`
	Cost       float64 `json:"cost"`
	// CostHistory is the tail of the per-iteration cost curve (bounded
	// by the server unless ?history=all was requested).
	CostHistory    []float64 `json:"cost_history,omitempty"`
	CheckpointIter int       `json:"checkpoint_iter,omitempty"`
	Checkpoint     string    `json:"checkpoint,omitempty"`
	ResumedFrom    string    `json:"resumed_from,omitempty"`
	// RecoveredFrom marks a job revived by server crash recovery and
	// says where its work restarted: "checkpoint@k" (warm start from
	// the OBJCKv1 checkpoint at iteration k), "scratch" (no checkpoint
	// existed yet), or "stream" (refolded from the spooled frame
	// journal). Empty for jobs that never crossed a restart.
	RecoveredFrom string `json:"recovered_from,omitempty"`
	// Tenant is the tenant the job is accounted to (derived from the
	// submission's X-API-Key; "anonymous" without one). Priority echoes
	// the submitted scheduling class. PreemptedCount is how many times
	// the job was checkpointed and requeued to make room for
	// interactive work — preemption is lossless, so a non-zero count
	// plus RecoveredFrom "checkpoint@k" means the job resumed from
	// iteration k with nothing recomputed.
	Tenant         string    `json:"tenant,omitempty"`
	Priority       string    `json:"priority,omitempty"`
	PreemptedCount int       `json:"preempted_count,omitempty"`
	Error          string    `json:"error,omitempty"`
	Created        time.Time `json:"created"`
	Started        time.Time `json:"started,omitzero"`
	Finished       time.Time `json:"finished,omitzero"`

	// Streaming progress (omitted for batch jobs).
	Streaming    bool `json:"streaming,omitempty"`
	Frames       int  `json:"frames,omitempty"`
	ActiveFrames int  `json:"active_frames,omitempty"`
	Folds        int  `json:"folds,omitempty"`
	EOF          bool `json:"eof,omitempty"`

	// Prediction is the runtime forecast made at job setup from the
	// dataset geometry and the server's calibrated throughput; nil for
	// streaming jobs (open-ended acquisition defies prediction).
	Prediction *Prediction `json:"prediction,omitempty"`
	// ActualSeconds is the measured wall-clock runtime, set when the job
	// finishes.
	ActualSeconds float64 `json:"actual_seconds,omitempty"`
	// PredictionErrorRatio is actual over predicted runtime (1.0 =
	// perfect forecast); 0 until the job finishes or when no prediction
	// was made.
	PredictionErrorRatio float64 `json:"prediction_error_ratio,omitempty"`
	// StragglerRanks lists ranks the imbalance tracker flagged as
	// persistently slow (grid/parallel jobs only).
	StragglerRanks []int `json:"straggler_ranks,omitempty"`
	// ImbalanceRatio is the mean max-over-mean per-rank compute ratio
	// across iterations (1.0 = perfectly balanced; 0 when untracked).
	ImbalanceRatio float64 `json:"imbalance_ratio,omitempty"`
}

// Prediction is a pre-run runtime forecast derived from the
// performance model (job geometry × machine calibration).
type Prediction struct {
	// Seconds is the predicted total runtime.
	Seconds float64 `json:"seconds"`
	// ComputeSeconds, WaitSeconds and CommSeconds break the prediction
	// into phases.
	ComputeSeconds float64 `json:"compute_seconds"`
	WaitSeconds    float64 `json:"wait_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	// Source is "model" (static calibration) or "calibrated" (live
	// throughput estimate from previously observed iterations).
	Source string `json:"source"`
	// Ranks is the parallel width the prediction assumed.
	Ranks int `json:"ranks"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCancelled
}

// JobPage is one page of GET /v1/jobs.
type JobPage struct {
	Jobs []Job `json:"jobs"`
	// NextCursor continues the listing when non-empty: pass it as the
	// cursor of the next request.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ListOptions selects a page of GET /v1/jobs.
type ListOptions struct {
	// Status keeps only jobs in the named state (StateQueued …); empty
	// keeps all.
	Status string
	// Cursor resumes a listing from a previous page's NextCursor.
	Cursor string
	// Limit bounds the page size; 0 selects the server default.
	Limit int
}

// FrameAck is the acknowledgment of an accepted frame chunk.
type FrameAck struct {
	// Accepted is the frame count of this chunk (0 for an 'E' chunk).
	Accepted int `json:"accepted"`
	// Total is the running total the job's ingest has accepted.
	Total int `json:"total"`
	// EOF reports that the chunk closed the stream.
	EOF bool `json:"eof,omitempty"`
}

// Event is one entry of a job's live feed (GET /v1/jobs/{id}/events).
// Types: "info" (full job summary in Info), "state", "iteration",
// "frames", "fold", "eof", "snapshot" — see the HTTP API reference.
type Event struct {
	Type   string    `json:"type"`
	Job    string    `json:"job"`
	State  string    `json:"state,omitempty"`
	Iter   int       `json:"iter,omitempty"`
	Cost   float64   `json:"cost,omitempty"`
	Frames int       `json:"frames,omitempty"`
	Time   time.Time `json:"time"`
	// Info carries the initial job summary on "info" events; nil
	// otherwise.
	Info *Job `json:"-"`
}

// TraceSpan is one timed phase of a job's span timeline
// (GET /v1/jobs/{id}/trace). Spans form a tree through Parent
// (0 = root). Rank -1 marks coordinator spans; Iter -1 marks spans not
// tied to an iteration.
type TraceSpan struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Rank   int       `json:"rank"`
	Iter   int       `json:"iter"`
	Start  time.Time `json:"start"`
	// End is zero while the span is still open.
	End time.Time `json:"end,omitzero"`
	// MS is the span duration in milliseconds (0 while open).
	MS float64 `json:"ms"`
}

// JobTrace is a job summary together with its span timeline.
type JobTrace struct {
	Job   Job         `json:"job"`
	Spans []TraceSpan `json:"spans"`
}

// GridWorker describes one registered grid worker endpoint.
type GridWorker struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Busy bool   `json:"busy"`
	// LastSeen is the time of the worker's most recent frame on the
	// coordinator hub — the liveness signal.
	LastSeen time.Time `json:"last_seen,omitzero"`
	// BytesIn/BytesOut/Messages are cumulative transport totals for this
	// endpoint as counted by the hub.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	Messages int64 `json:"messages"`
	// Sessions counts the distributed sessions this endpoint has served.
	Sessions int64 `json:"sessions"`
}

// GridStatus is the worker-grid coordinator's state (GET /v1/grid).
type GridStatus struct {
	Enabled bool         `json:"enabled"`
	Addr    string       `json:"addr"`
	Workers []GridWorker `json:"workers"`
	Idle    int          `json:"idle"`
}

// Status is the fleet-health rollup (GET /v1/status): queue and pool
// state, grid liveness, WAL counters and prediction accuracy in one
// scrape-friendly JSON object.
type Status struct {
	Time          time.Time `json:"time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Workers       int       `json:"workers"`
	WorkersIdle   int       `json:"workers_idle"`
	QueueDepth    int       `json:"queue_depth"`
	// Jobs counts jobs by state name ("queued", "running", …); every
	// state is present, zero when empty.
	Jobs map[string]int `json:"jobs"`
	// Grid is nil when the server runs without a worker grid.
	Grid *GridSummary `json:"grid,omitempty"`
	// WAL is nil when the server runs without a durable store.
	WAL        *WALSummary       `json:"wal,omitempty"`
	Prediction PredictionSummary `json:"prediction"`
	// SchedPolicy is the server's queue policy ("fifo" or "wfq");
	// Tenants is the per-tenant fairness rollup, nil before the first
	// submission.
	SchedPolicy string         `json:"sched_policy,omitempty"`
	Tenants     []TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's row of the Status fairness rollup.
type TenantStatus struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Active is the tenant's in-flight (queued + running) jobs;
	// MaxActive and IngestQuotaBytes echo its configured caps (0 =
	// unlimited); IngestBytes is its live streaming-buffer footprint.
	Active           int   `json:"active"`
	MaxActive        int   `json:"max_active,omitempty"`
	IngestQuotaBytes int64 `json:"ingest_quota_bytes,omitempty"`
	IngestBytes      int64 `json:"ingest_bytes,omitempty"`
	Submitted        int64 `json:"submitted_total"`
	Preempted        int64 `json:"preempted_total,omitempty"`
	QuotaRejections  int64 `json:"quota_rejections_total,omitempty"`
	// CompletedCostSeconds is the tenant's finished wall-clock work;
	// Share is its fraction of all finished work — under wfq this
	// converges to the configured weight ratio when tenants contend.
	CompletedCostSeconds float64 `json:"completed_cost_seconds"`
	Share                float64 `json:"share,omitempty"`
}

// GridSummary is the grid block of Status.
type GridSummary struct {
	Addr        string       `json:"addr"`
	Workers     []GridWorker `json:"workers"`
	Busy        int          `json:"busy"`
	Sessions    int64        `json:"sessions_total"`
	BytesRouted int64        `json:"bytes_routed_total"`
}

// WALSummary is the durability block of Status.
type WALSummary struct {
	Records       int64 `json:"records_total"`
	Syncs         int64 `json:"syncs_total"`
	Compactions   int64 `json:"compactions_total"`
	Bytes         int64 `json:"bytes"`
	Errors        int64 `json:"errors_total"`
	ReplayRecords int   `json:"replay_records"`
	ReplayTorn    int   `json:"replay_torn"`
}

// PredictionSummary aggregates runtime-forecast accuracy across
// finished jobs.
type PredictionSummary struct {
	// Jobs is how many finished jobs were scored against a prediction.
	Jobs int `json:"jobs"`
	// MeanAbsErrorPct is the mean absolute prediction error in percent
	// (|ratio−1|·100 averaged over scored jobs).
	MeanAbsErrorPct float64 `json:"mean_abs_error_pct"`
	// LastErrorRatio is the most recent actual/predicted ratio.
	LastErrorRatio float64 `json:"last_error_ratio,omitempty"`
	// CalibratedFlops is the live per-rank throughput estimate feeding
	// new predictions; 0 until the first iteration is observed.
	CalibratedFlops float64 `json:"calibrated_flops,omitempty"`
	// CalibrationIters is how many iteration observations back the
	// estimate.
	CalibrationIters int `json:"calibration_iters,omitempty"`
}

// FlightEvent is one entry of a job's flight recorder: a bounded ring
// of recent structured events (state changes, iterations, checkpoints,
// errors, straggler flags) kept per job for post-mortem debugging.
type FlightEvent struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	State  string    `json:"state,omitempty"`
	Iter   int       `json:"iter,omitempty"`
	Cost   float64   `json:"cost,omitempty"`
	Frames int       `json:"frames,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// DebugBundle is the one-stop failure dossier of a job
// (GET /v1/jobs/{id}/debug): summary with full cost history, the
// parameters as submitted, the span timeline and the flight-recorder
// tail.
type DebugBundle struct {
	Job    Job           `json:"job"`
	Params SubmitRequest `json:"params"`
	Spans  []TraceSpan   `json:"spans"`
	Events []FlightEvent `json:"events"`
}
