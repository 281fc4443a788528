// Command ptychoserve runs the concurrent reconstruction job service: an
// HTTP server that accepts dataset uploads (closed PTYCHS streams) and
// live PTYCHS feeds, schedules reconstructions on a bounded worker
// pool, writes periodic OBJCKv1 checkpoints, serves live phase-image
// previews, and supports cancel and checkpoint-resume — the operational
// front end for steering a running microscopy experiment.
//
// Usage:
//
//	ptychoserve [-addr :8617] [-workers 2] [-queue 16]
//	            [-spool DIR] [-checkpoint-every 5] [-ingest 4096]
//	            [-grid ADDR] [-max-upload BYTES] [-state-dir DIR]
//	            [-sched fifo|wfq] [-tenant NAME:WEIGHT[:MAX[:BYTES]]]...
//	            [-interactive-reserve N]
//	            [-log-format text|json] [-log-level info] [-debug-addr ADDR]
//
// -sched wfq turns on weighted-fair queueing: jobs are accounted to the
// tenant named by their X-API-Key header ("anonymous" without one) and
// dispatched by start-time fair queueing over the tenants' weights,
// with "interactive"-priority jobs served ahead of "bulk" work — an
// interactive arrival may preempt a running bulk job at its next
// iteration boundary (checkpoint + requeue, no work lost). Repeatable
// -tenant flags declare per-tenant weight and quotas:
// NAME:WEIGHT[:MAX-ACTIVE[:INGEST-BYTES]], e.g. -tenant alpha:3:4
// gives tenant alpha weight 3 and at most 4 in-flight jobs. Undeclared
// tenants get weight 1 and no quotas. -interactive-reserve holds N
// queue slots that only interactive submissions may use, so bulk
// floods shed before interactive work does. The default -sched fifo
// preserves strict arrival order; quotas and per-tenant accounting
// still apply.
//
// Logs are structured (log/slog) on stderr: text for humans by
// default, -log-format json for machine ingestion. Every request line
// carries the X-Request-ID, every job line the job ID and its
// request_id trace context, so one grep follows a submission across the
// HTTP, job and grid layers. -log-level debug adds per-iteration and
// per-checkpoint lines. -debug-addr serves net/http/pprof on a
// SEPARATE listener (keep it on localhost or behind a firewall — it is
// deliberately not mounted on the public API address).
//
// With -state-dir, job state is durable: every lifecycle transition is
// append-logged to DIR/jobs.wal (PTYWALv2, periodically compacted into
// DIR/jobs.snap), datasets and stream frames are spooled beside it, and
// a restarted server replays the log — history, pagination and
// idempotency keys come back, and jobs that were queued or running at
// crash time re-enter the queue under their original IDs, warm-started
// from their last OBJCKv1 checkpoint (look for "recovered_from" on the
// job object). Without the flag nothing survives the process, as
// before. Unless -spool is set, checkpoints then default to
// DIR/checkpoints so they survive restarts too.
//
// The public HTTP surface is versioned under /v1 (problem-envelope
// errors, multipart submission, cursor pagination, idempotent submits);
// only /metrics and /healthz live outside it. Go programs should use
// the typed SDK in the top-level client package.
//
// With -grid, the server additionally runs the worker-grid coordinator:
// ptychoworker processes dial ADDR over the CRC-framed TCP transport,
// and jobs submitted with "grid": true run their parallel engine across
// those processes — one rank per mesh tile — with the same checkpoint,
// preview, cancel and resume behavior as local jobs.
//
// See docs/HTTP_API.md for the complete endpoint reference (CI-verified
// curl examples) and README.md for the quickstarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/httpapi"
	"ptychopath/internal/jobs/sched"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8617", "listen address")
	workers := flag.Int("workers", max(1, runtime.NumCPU()/2), "concurrent reconstructions (worker pool size)")
	queue := flag.Int("queue", 16, "bounded FIFO depth for queued jobs")
	spool := flag.String("spool", "", "checkpoint spool directory (default: fresh temp dir)")
	ckEvery := flag.Int("checkpoint-every", 5, "default iterations between OBJCKv1 checkpoints / preview snapshots")
	timeout := flag.Duration("timeout", 5*time.Minute, "parallel-engine communication timeout")
	ingest := flag.Int("ingest", 4096, "default per-job frame buffer for streaming jobs (429 backpressure beyond it)")
	gridAddr := flag.String("grid", "", "worker-grid coordinator listen address (e.g. :8619); empty disables distributed jobs")
	maxUpload := flag.Int64("max-upload", httpapi.DefaultMaxUploadBytes,
		"largest accepted request body in bytes (dataset uploads, frame chunks); beyond it requests answer 413 payload_too_large")
	stateDir := flag.String("state-dir", "",
		"durable job-state directory (WAL + snapshot + dataset spools); restarts recover interrupted jobs. Empty keeps state in memory")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "",
		"net/http/pprof listen address (e.g. 127.0.0.1:8620); empty disables the debug server. Do not expose publicly")
	schedPolicy := flag.String("sched", "fifo", "queue policy: fifo (arrival order) or wfq (weighted-fair by tenant, interactive priority preempts bulk)")
	interactiveReserve := flag.Int("interactive-reserve", 0, "queue slots reserved for interactive-priority submissions (bulk sheds first)")
	tenants := map[string]sched.TenantConfig{}
	flag.Func("tenant", "tenant config NAME:WEIGHT[:MAX-ACTIVE[:INGEST-BYTES]] (repeatable)", func(v string) error {
		name, tc, err := parseTenant(v)
		if err != nil {
			return err
		}
		tenants[name] = tc
		return nil
	})
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptychoserve:", err)
		os.Exit(1)
	}
	schedCfg := sched.Config{Policy: *schedPolicy, Tenants: tenants, InteractiveReserve: *interactiveReserve}
	if err := run(log, *addr, *workers, *queue, *spool, *ckEvery, *timeout, *ingest, *gridAddr, *maxUpload, *stateDir, *debugAddr, schedCfg); err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// parseTenant decodes one -tenant flag value:
// NAME:WEIGHT[:MAX-ACTIVE[:INGEST-BYTES]].
func parseTenant(v string) (string, sched.TenantConfig, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return "", sched.TenantConfig{}, fmt.Errorf("tenant %q: want NAME:WEIGHT[:MAX-ACTIVE[:INGEST-BYTES]]", v)
	}
	var tc sched.TenantConfig
	w, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || w <= 0 {
		return "", sched.TenantConfig{}, fmt.Errorf("tenant %q: weight %q must be a positive number", v, parts[1])
	}
	tc.Weight = w
	if len(parts) >= 3 {
		if tc.MaxActive, err = strconv.Atoi(parts[2]); err != nil || tc.MaxActive < 0 {
			return "", sched.TenantConfig{}, fmt.Errorf("tenant %q: max-active %q must be a non-negative integer", v, parts[2])
		}
	}
	if len(parts) == 4 {
		if tc.IngestBytes, err = strconv.ParseInt(parts[3], 10, 64); err != nil || tc.IngestBytes < 0 {
			return "", sched.TenantConfig{}, fmt.Errorf("tenant %q: ingest-bytes %q must be a non-negative integer", v, parts[3])
		}
	}
	return parts[0], tc, nil
}

func run(log *slog.Logger, addr string, workers, queue int, spool string, ckEvery int, timeout time.Duration, ingest int, gridAddr string, maxUpload int64, stateDir, debugAddr string, schedCfg sched.Config) error {
	var st store.Store
	if stateDir != "" {
		wal, err := store.OpenWAL(store.WALConfig{Dir: stateDir})
		if err != nil {
			return err
		}
		defer wal.Close()
		st = wal
		if spool == "" {
			// Checkpoints must survive restarts too, or recovery has
			// nothing to warm-start from.
			spool = filepath.Join(stateDir, "checkpoints")
		}
	}
	svc, err := jobs.NewService(jobs.Config{
		Workers: workers, QueueDepth: queue, SpoolDir: spool,
		CheckpointEvery: ckEvery, Timeout: timeout, IngestFrames: ingest,
		GridAddr: gridAddr, Store: st, Logger: log, Sched: schedCfg,
	})
	if err != nil {
		return err
	}
	log.Info("service configured", "workers", svc.Config().Workers,
		"queue_depth", svc.Config().QueueDepth, "spool", svc.Config().SpoolDir,
		"sched", svc.Config().Sched.Policy, "tenants", len(svc.Config().Sched.Tenants))
	if stateDir != "" {
		recovered, restored, unrecoverable, records, torn := svc.RecoveryStats()
		log.Info("durable state replayed", "state_dir", stateDir,
			"records", records, "torn", torn, "re_enqueued", recovered,
			"restored", restored, "unrecoverable", unrecoverable)
	}
	if svc.GridEnabled() {
		log.Info("grid coordinator listening", "grid_addr", svc.GridAddr())
	}

	if debugAddr != "" {
		// pprof on its own listener so profiling never shares the public
		// API surface (bind it to localhost). An explicit mux rather than
		// DefaultServeMux: nothing else can accidentally register here.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Info("debug server listening", "debug_addr", debugAddr)
			if err := http.ListenAndServe(debugAddr, dmux); err != nil {
				log.Error("debug server failed", "err", err)
			}
		}()
	}

	// Slowloris hardening: a client must deliver its headers quickly,
	// finish any request body within the read window (uploads are bulk
	// transfers, not trickles — the body bound itself is -max-upload),
	// and keep-alive connections are reaped when idle. The SSE events
	// route clears the write deadline per connection — a live feed
	// legitimately outlives any response window (see httpapi).
	srv := &http.Server{
		Addr:              addr,
		Handler:           httpapi.New(svc, httpapi.WithMaxUpload(maxUpload), httpapi.WithLogger(log)).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down, cancelling in-flight jobs (checkpoints let them resume)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Graceful stop: reject new submissions, cancel every queued and
	// running job at its next iteration boundary (final checkpoint
	// flushed, streaming jobs woken from their ingest wait), drain the
	// pool, exit 0. A restarted server can resume the work from the
	// spool.
	svc.Shutdown()
	log.Info("all jobs checkpointed, bye")
	return nil
}
