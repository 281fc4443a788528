package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ptychopath/client"
	"ptychopath/internal/gridworker"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/httpapi"
	"ptychopath/internal/jobs/store"
)

const gridRanks = meshRows * meshCols

// stack is the real serving stack in one process: jobs.Service behind
// the /v1 handler on a loopback listener, optionally an on-disk WAL,
// optionally four gridworker ranks over loopback TCP, and the client
// SDK pointed at it.
type stack struct {
	dir string
	wal *store.WAL
	svc *jobs.Service
	srv *http.Server
	hc  *http.Client
	cl  *client.Client

	stopWorkers context.CancelFunc
	workersDone chan struct{}

	// Backpressure seen by the SDK's retry hook: rejected attempts and
	// the Retry-After time it then slept.
	rejected     atomic.Int64
	retrySleepNS atomic.Int64
}

type stackConfig struct {
	wal, grid bool
	workers   int
	// retryCap caps the SDK's sleep after a 429 (0: the SDK default of
	// 30 s, which in effect honours every Retry-After in full).
	retryCap time.Duration
}

// startStack brings the stack up under dir (created; removed by stop)
// and returns once the listener accepts and every rank has registered.
func startStack(dir string, cfg stackConfig) (_ *stack, err error) {
	s := &stack{dir: dir}
	if cfg.retryCap == 0 {
		cfg.retryCap = 30 * time.Second
	}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jc := jobs.Config{
		Workers: cfg.workers, QueueDepth: 16,
		SpoolDir: filepath.Join(dir, "spool"), Timeout: time.Minute,
	}
	if cfg.wal {
		if s.wal, err = store.OpenWAL(store.WALConfig{Dir: filepath.Join(dir, "state")}); err != nil {
			return nil, err
		}
		jc.Store = s.wal
	}
	if cfg.grid {
		jc.GridAddr = "127.0.0.1:0"
	}
	if s.svc, err = jobs.NewService(jc); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: httpapi.New(s.svc).Handler()}
	go s.srv.Serve(ln) // returns http.ErrServerClosed from stop

	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	s.cl, err = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(s.hc),
		// A feeder never gives up on backpressure: the frames exist once.
		client.WithRetry(math.MaxInt32, cfg.retryCap),
		client.WithRetryNotify(func(_ error, delay time.Duration) {
			s.rejected.Add(1)
			s.retrySleepNS.Add(int64(delay))
		}))
	if err != nil {
		return nil, err
	}
	if cfg.grid {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWorkers, s.workersDone = cancel, make(chan struct{})
		go func() {
			defer close(s.workersDone)
			gridworker.Run(ctx, s.svc.GridAddr(), gridworker.Options{Name: "bench", Ranks: gridRanks})
		}()
		for limit := time.Now().Add(10 * time.Second); len(s.svc.GridWorkers()) < gridRanks; {
			if time.Now().After(limit) {
				return nil, errors.New("grid ranks did not register within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return s, nil
}

// stop tears the stack down in dependency order and removes its files.
func (s *stack) stop() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		<-s.workersDone
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.svc != nil {
		s.svc.Shutdown()
	}
	if s.wal != nil {
		s.wal.Close()
	}
	os.RemoveAll(s.dir)
}

// jobRun is one job as the client saw it.
type jobRun struct {
	t0, t1, t2 time.Time   // Submit called, Submit returned, terminal event arrived
	iterAt     []time.Time // arrival of each "iteration" event
	job        *client.Job // summary fetched after the terminal event
}

// runJob submits a batch job and follows it to its terminal state.
func (s *stack) runJob(ctx context.Context, req client.SubmitRequest, dataset []byte) (*jobRun, error) {
	r := &jobRun{t0: time.Now()}
	job, err := s.cl.Submit(ctx, req, bytes.NewReader(dataset))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	r.t1 = time.Now()
	if r.t2, r.iterAt, err = s.awaitTerminal(ctx, job.ID); err != nil {
		return nil, err
	}
	if r.job, err = s.cl.Get(ctx, job.ID); err != nil {
		return nil, fmt.Errorf("get %s: %w", job.ID, err)
	}
	return r, nil
}

// awaitTerminal learns of completion from the job's SSE feed, never
// from client.Wait: its 150 ms poll tick would quantise a 4 ms job.
// The feed is advisory (a slow consumer loses events), so a feed that
// ends without a terminal event falls back to polling Get.
func (s *stack) awaitTerminal(ctx context.Context, id string) (done time.Time, iterAt []time.Time, err error) {
	es, err := s.cl.Events(ctx, id)
	if err != nil {
		return done, nil, fmt.Errorf("events %s: %w", id, err)
	}
	for {
		ev, err := es.Next()
		if err != nil {
			// io.EOF after the terminal event is the normal end; reading
			// up to it lets the connection be reused.
			break
		}
		switch {
		case ev.Type == "iteration":
			iterAt = append(iterAt, time.Now())
		case done.IsZero() && (ev.Type == "state" && (&client.Job{State: ev.State}).Terminal() || ev.Info != nil && ev.Info.Terminal()):
			done = time.Now()
		}
	}
	es.Close()
	for done.IsZero() {
		job, err := s.cl.Get(ctx, id)
		if err != nil {
			return done, nil, fmt.Errorf("get %s: %w", id, err)
		}
		if job.Terminal() {
			done = time.Now()
			break
		}
		time.Sleep(time.Millisecond)
	}
	return done, iterAt, nil
}

// object downloads a finished job's OBJCKv1 object.
func (s *stack) object(ctx context.Context, id string) ([]byte, error) {
	body, _, err := s.cl.Object(ctx, id)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return io.ReadAll(body)
}
