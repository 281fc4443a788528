// Command ptychofeed replays an existing dataset file against a
// running ptychoserve as a LIVE acquisition: it opens a streaming job
// from the dataset's geometry, then pushes the diffraction frames in
// rate-limited chunks of -chunk frames exactly as a beamline detector
// would, honoring the server's 429 backpressure, and finally closes the
// stream. It is the demo driver and the end-to-end test vehicle for the
// streaming subsystem — point it at any dataset and watch previews
// sharpen while "acquisition" is still underway.
//
// ptychofeed speaks the versioned /v1 API exclusively, through the
// typed SDK in the top-level client package — idempotent submission,
// typed problem-envelope errors, and Retry-After-honoring backoff all
// come from the SDK rather than hand-rolled HTTP.
//
// Usage:
//
//	ptychofeed -file dataset.ptycho [-server http://127.0.0.1:8617]
//	           [-chunk 16] [-interval 200ms] [-alg serial] [-step 0.01]
//	           [-iters 20] [-fold-every 1] [-checkpoint-every 5]
//	           [-mesh 2x2] [-wait]
//
// -iters is the tail: iterations run over the complete dataset after
// the feed closes the stream. With -wait, ptychofeed polls the job to
// completion and exits non-zero if it did not finish Done.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8617", "ptychoserve base URL")
	file := flag.String("file", "", "dataset file to replay (required)")
	chunk := flag.Int("chunk", 16, "frames per chunk")
	interval := flag.Duration("interval", 200*time.Millisecond, "delay between chunks (acquisition rate)")
	alg := flag.String("alg", "serial", "reconstruction algorithm: serial or gd")
	step := flag.Float64("step", 0, "gradient step size (0 = server default)")
	iters := flag.Int("iters", 20, "tail iterations after the stream closes")
	foldEvery := flag.Int("fold-every", 0, "iterations between ingest folds (0 = server default)")
	ckEvery := flag.Int("checkpoint-every", 0, "iterations between checkpoints/previews (0 = server default)")
	mesh := flag.String("mesh", "", "gd tile mesh, ROWSxCOLS")
	wait := flag.Bool("wait", false, "poll the job to completion and report the outcome")
	flag.Parse()

	if *file == "" {
		fmt.Fprintln(os.Stderr, "ptychofeed: -file is required")
		os.Exit(2)
	}
	if err := run(*server, *file, *chunk, *interval, *alg, *step, *iters, *foldEvery, *ckEvery, *mesh, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "ptychofeed:", err)
		os.Exit(1)
	}
}

func run(server, file string, chunk int, interval time.Duration, alg string,
	step float64, iters, foldEvery, ckEvery int, mesh string, wait bool) error {
	if chunk <= 0 {
		return fmt.Errorf("chunk must be positive, got %d", chunk)
	}
	req := client.SubmitRequest{
		Algorithm:       alg,
		Iterations:      iters,
		StepSize:        step,
		FoldEvery:       foldEvery,
		CheckpointEvery: ckEvery,
	}
	if mesh != "" {
		rows, cols, ok := strings.Cut(strings.ToLower(mesh), "x")
		if !ok {
			return fmt.Errorf("mesh %q: want ROWSxCOLS", mesh)
		}
		var err error
		if req.MeshRows, err = strconv.Atoi(rows); err != nil {
			return fmt.Errorf("mesh %q: %w", mesh, err)
		}
		if req.MeshCols, err = strconv.Atoi(cols); err != nil {
			return fmt.Errorf("mesh %q: %w", mesh, err)
		}
	}

	prob, err := dataio.ReadFile(file)
	if err != nil {
		return err
	}
	frames := dataio.FramesFromProblem(prob)
	fmt.Printf("ptychofeed: replaying %s: %d frames in chunks of %d every %v\n",
		file, len(frames), chunk, interval)

	ctx := context.Background()
	// A detector pipeline never gives up on backpressure: the frames
	// exist only once. Effectively unbounded retries (the SDK default
	// of 8 would abort an acquisition after ~8s of solver lag).
	c, err := client.New(server,
		client.WithRetry(math.MaxInt32, 30*time.Second),
		client.WithRetryNotify(func(err error, delay time.Duration) {
			fmt.Printf("ptychofeed: server busy (%v), backing off %v\n", err, delay)
		}))
	if err != nil {
		return err
	}

	// Open the streaming job from the dataset's geometry alone.
	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		return err
	}
	job, err := c.SubmitStreaming(ctx, req, &opening)
	if err != nil {
		return fmt.Errorf("opening stream job: %w", err)
	}
	fmt.Printf("ptychofeed: opened %s (%s)\n", job.ID, job.State)

	// Feed the frames. Backoff on a full ingest is the SDK's job — it
	// retries the same chunk after the server's Retry-After hint
	// (acceptance is all-or-nothing, so the retry cannot double-feed).
	for lo := 0; lo < len(frames); lo += chunk {
		hi := min(lo+chunk, len(frames))
		var body bytes.Buffer
		if err := dataio.WriteFrameChunk(&body, prob.WindowN, frames[lo:hi]); err != nil {
			return err
		}
		ack, err := c.AppendFrames(ctx, job.ID, body.Bytes())
		if err != nil {
			return fmt.Errorf("chunk [%d,%d): %w", lo, hi, err)
		}
		fmt.Printf("ptychofeed: fed frames [%d,%d) — %d/%d ingested\n", lo, hi, ack.Total, len(frames))
		if hi < len(frames) {
			time.Sleep(interval)
		}
	}

	if _, err := c.CloseStream(ctx, job.ID); err != nil {
		return fmt.Errorf("closing stream: %w", err)
	}
	fmt.Println("ptychofeed: stream closed; job finishing its tail iterations")
	jobURL := strings.TrimRight(server, "/") + "/v1/jobs/" + job.ID
	if !wait {
		fmt.Printf("ptychofeed: follow with  curl -N %s/events\n", jobURL)
		return nil
	}

	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		return err
	}
	if final.State != client.StateDone {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	fmt.Printf("ptychofeed: %s done — %d iterations, %d folds, %d frames, final cost %.6g\n",
		final.ID, final.Iter, final.Folds, final.Frames, final.Cost)
	fmt.Printf("ptychofeed: preview at %s/preview.png, object at %s/object\n", jobURL, jobURL)
	return nil
}
