// Package gridworker is the worker-process runtime of the distributed
// grid: it dials the coordinator hub (internal/transport), waits for
// session setups, runs ONE rank of the selected reconstruction engine
// per session — engine.RunRank, the same entry point an in-process run
// uses, driven over the TCP transport instead of the in-process world —
// and ships the rank's interior tile back for stitching. A rank holds
// only what the coordinator sharded out to it: the measurements of the
// locations it evaluates and, on a warm start, its own tile of the
// initial object.
//
// cmd/ptychoworker is a thin flag wrapper around Run; the capstone
// tests drive Run directly over loopback TCP.
package gridworker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/transport"
)

// Options configures a worker process.
type Options struct {
	// Name identifies the worker in the coordinator's registry.
	// Default: hostname-pid.
	Name string
	// Ranks is how many rank endpoints this process contributes (each
	// is an independent connection and can serve a different session).
	// Default 1.
	Ranks int
	// Timeout bounds blocking transport operations while idle; sessions
	// override it. 0 selects the transport default.
	Timeout time.Duration
	// Reconnect keeps the worker dialing (1 s backoff) when the
	// coordinator is unreachable or restarts, instead of exiting.
	Reconnect bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// StatsDelay, when non-nil, injects a synchronous delay into the
	// rank's per-iteration stats path: the worker sleeps the returned
	// duration inside the engine loop and reports it as extra compute
	// time. A fault-injection hook for exercising the coordinator's
	// straggler detection against a genuinely slowed rank; production
	// workers leave it nil.
	StatsDelay func(rank, iter int) time.Duration
}

func (o *Options) setDefaults() {
	if o.Name == "" {
		host, _ := os.Hostname()
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Run connects Options.Ranks endpoints to the coordinator at addr and
// serves sessions until ctx is cancelled (connections close immediately
// — a mid-session cancel looks like a worker loss to the coordinator,
// which fails the job over to its last checkpoint). Without Reconnect
// it returns the first connection error; with it, only ctx ends it.
func Run(ctx context.Context, addr string, opts Options) error {
	opts.setDefaults()
	var wg sync.WaitGroup
	errs := make([]error, opts.Ranks)
	for i := 0; i < opts.Ranks; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			name := opts.Name
			if opts.Ranks > 1 {
				name = fmt.Sprintf("%s/%d", opts.Name, slot)
			}
			errs[slot] = runLoop(ctx, addr, name, opts)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runLoop(ctx context.Context, addr, name string, opts Options) error {
	for {
		c, err := transport.Dial(addr, transport.DialOptions{Name: name, Timeout: opts.Timeout})
		if err == nil {
			opts.Logf("%s: connected to %s as worker %d", name, addr, c.ID())
			err = serve(ctx, c, name, opts)
			c.Close()
		}
		if ctx.Err() != nil {
			return nil
		}
		if !opts.Reconnect {
			return err
		}
		opts.Logf("%s: %v; reconnecting", name, err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return nil
		}
	}
}

// serve handles sessions on one connection until it dies or ctx fires.
func serve(ctx context.Context, c *transport.Client, name string, opts Options) error {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	for {
		sctx, sessCancel := context.WithCancel(ctx)
		setup, err := c.WaitSetup(ctx, sessCancel)
		if err != nil {
			sessCancel()
			return err
		}
		if setup.Trace != "" {
			opts.Logf("%s: session %s rank %d/%d (%s, trace %s)",
				name, setup.JobID, setup.Rank, setup.Size, setup.Algorithm, setup.Trace)
		} else {
			opts.Logf("%s: session %s rank %d/%d (%s)",
				name, setup.JobID, setup.Rank, setup.Size, setup.Algorithm)
		}
		res := runSession(sctx, c, setup, opts)
		sessCancel()
		if err := c.SendResult(res); err != nil {
			return err
		}
		if res.Err != "" {
			opts.Logf("%s: session %s rank %d failed: %s", name, setup.JobID, setup.Rank, res.Err)
		} else {
			opts.Logf("%s: session %s rank %d done", name, setup.JobID, setup.Rank)
		}
	}
}

// runSession executes one rank of one session; engine failures are
// reported in-band through RankResult.Err, never by tearing the
// connection down.
func runSession(ctx context.Context, c *transport.Client, setup *transport.Setup, opts Options) *transport.RankResult {
	fail := func(err error) *transport.RankResult {
		return &transport.RankResult{Rank: setup.Rank, Err: err.Error()}
	}
	var spec engine.Spec
	if err := json.Unmarshal(setup.Spec, &spec); err != nil {
		return fail(fmt.Errorf("decoding spec: %w", err))
	}
	spec.Timeout = time.Duration(setup.TimeoutMS) * time.Millisecond
	// The shard is a closed PTYCHSv2 stream of this rank's locations,
	// decoded as its frames arrive. One that merely stops before 'E' is
	// a coordinator that broke off, not a short dataset.
	if setup.Shard == nil {
		return fail(errors.New("decoding shard: the session carries none"))
	}
	prob, err := dataio.Read(setup.Shard)
	if err != nil {
		return fail(fmt.Errorf("decoding shard: %w", err))
	}
	var init []*grid.Complex2D // none: a vacuum start, the engine builds the tile
	if len(setup.Init) > 0 {
		if init, err = dataio.ReadObject(bytes.NewReader(setup.Init)); err != nil {
			return fail(fmt.Errorf("decoding initial object: %w", err))
		}
	}

	// Progress plumbing: the engine invokes OnIteration and OnSnapshot on
	// rank 0 only, and the transport relays them to the coordinator's job
	// record. The snapshot send is synchronous — the checkpoint is
	// durable before the run proceeds, exactly like the in-process
	// OnSnapshot contract. Every rank additionally reports its
	// per-iteration compute/comm split (extended ITER frames), which the
	// coordinator folds into the job's span trace.
	hooks := engine.Hooks{
		Ctx:         ctx,
		OnIteration: func(iter int, cost float64) { c.SendIteration(iter, cost) },
		OnRankStats: func(rank, iter int, computeNS, commNS int64) {
			if opts.StatsDelay != nil {
				if d := opts.StatsDelay(rank, iter); d > 0 {
					// Synchronous: the engine loop stalls here, so the rank
					// is genuinely slower, not just reported slower.
					time.Sleep(d)
					computeNS += int64(d)
				}
			}
			c.SendIterStats(iter, computeNS, commNS)
		},
		OnSnapshot: func(iter int, slices []*grid.Complex2D) error {
			object, err := dataio.AppendObject(nil, slices)
			if err != nil {
				return err
			}
			return c.SendSnapshot(iter, object)
		},
	}
	out, err := engine.RunRank(c, prob, init, spec, hooks)
	if err != nil {
		return fail(err)
	}
	// Only the interior goes back, encoded in place: the stitch copies
	// nothing else.
	mesh, err := engine.NewMesh(prob, spec)
	if err != nil {
		return fail(err)
	}
	tile, err := dataio.AppendObjectRegion(nil, out.Slices, mesh.Tile(mesh.RowCol(setup.Rank)))
	if err != nil {
		return fail(err)
	}
	return &transport.RankResult{
		Rank: setup.Rank, Cancelled: out.Cancelled,
		CostHistory: out.CostHistory,
		Locations:   out.Locations, Owned: out.Owned,
		MemBytes: out.MemBytes, ComputeNS: out.ComputeNS, CommNS: out.CommNS,
		SentBytes: out.SentBytes, SentMessages: out.SentMessages,
		Tile: tile,
	}
}
