package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
)

// gridSetupProblem is a dataset of the bench's grid-setup shape: a
// 24x24 scan of 32-pixel frames over two slices, 4.8 MB as a stream.
func gridSetupProblem(t *testing.T) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: 24, Rows: 24, StepPix: scan.StepForOverlap(8, 0.75), RadiusPix: 8, MarginPix: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 2, 1), WindowN: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// heapInUse is the heap in use once everything unreachable is gone.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC() // the second empties what sync.Pools kept through the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestQueuedJobsHoldNoMeasurements: a queued batch job holds its
// geometry and a spool path, not its measurements, so sixteen queued
// 4.8 MB jobs take about the heap one does — as submitted, and as a
// WAL recovery re-queues them.
func TestQueuedJobsHoldNoMeasurements(t *testing.T) {
	prob := gridSetupProblem(t)
	for _, recovered := range []bool{false, true} {
		one := queuedHeap(t, prob, 1, recovered)
		sixteen := queuedHeap(t, prob, 16, recovered)
		t.Logf("recovered=%v: heap in use %.1f MB with 1 queued job, %.1f MB with 16",
			recovered, float64(one)/(1<<20), float64(sixteen)/(1<<20))
		if sixteen > one+2<<20 {
			t.Errorf("recovered=%v: 16 queued jobs hold %.1f MB more heap than 1 (bound 2 MB)",
				recovered, float64(sixteen-one)/(1<<20))
		}
	}
}

// queuedHeap submits n jobs behind a streaming job that never sees EOF
// and so pins the single worker — and, recovered, crashes that life and
// opens the next, which re-queues them all — then measures the heap. It
// runs as a subtest, whose cleanup lets go of its lives before the next
// measurement.
func queuedHeap(t *testing.T, prob *solver.Problem, n int, recovered bool) (heap uint64) {
	cfg := Config{Workers: 1, QueueDepth: 16}
	t.Run(fmt.Sprintf("queued=%d/recovered=%v", n, recovered), func(t *testing.T) {
		dir := t.TempDir()
		l := openLife(t, dir, cfg)
		blocker, err := l.svc.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
		for range n {
			if _, err := l.svc.Submit(prob, Params{Algorithm: "gd", Iterations: 3, MeshRows: 2, MeshCols: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if recovered {
			l.crash()
			l = openLife(t, dir, cfg)
			waitFor(t, "blocker running again", func() bool {
				b, ok := l.svc.Get(blocker.ID())
				return ok && b.State() == Running
			})
			if got := l.svc.QueueDepth(); got != n {
				t.Fatalf("recovery re-queued %d jobs, want %d", got, n)
			}
		}
		heap = heapInUse()
	})
	return heap
}

// TestFinishedJobsHoldNoObject: a finished job's object is its final
// checkpoint file, not a heap copy, so sixteen finished jobs take about
// the heap one does — under store.Mem and under the WAL, which both
// write every checkpoint into the spool directory.
func TestFinishedJobsHoldNoObject(t *testing.T) {
	prob := gridSetupProblem(t)
	for _, durable := range []bool{false, true} {
		one := finishedHeap(t, prob, 1, durable)
		sixteen := finishedHeap(t, prob, 16, durable)
		t.Logf("durable=%v: heap in use %.1f MB with 1 finished job, %.1f MB with 16",
			durable, float64(one)/(1<<20), float64(sixteen)/(1<<20))
		if sixteen > one+2<<20 {
			t.Errorf("durable=%v: 16 finished jobs hold %.1f MB more heap than 1 (bound 2 MB)",
				durable, float64(sixteen-one)/(1<<20))
		}
	}
}

// finishedHeap runs n 2-iteration serial jobs to Done on a service
// backed by store.Mem or, durable, by the WAL, then measures the heap
// with the service and its jobs still alive. Like queuedHeap it runs as
// a subtest, so the next measurement starts without this service.
func finishedHeap(t *testing.T, prob *solver.Problem, n int, durable bool) (heap uint64) {
	cfg := Config{Workers: 2, QueueDepth: 16}
	t.Run(fmt.Sprintf("finished=%d/durable=%v", n, durable), func(t *testing.T) {
		var s *Service
		if durable {
			s = openLife(t, t.TempDir(), cfg).svc
		} else {
			s = newTestService(t, cfg)
		}
		jobs := make([]*Job, n)
		for i := range jobs {
			j, err := s.Submit(prob, Params{Algorithm: "serial", Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for _, j := range jobs {
			waitFor(t, "job done", func() bool { return j.State() == Done })
		}
		heap = heapInUse()
	})
	return heap
}

// openSpoolHandles counts this process's descriptors open on path.
func openSpoolHandles(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("descriptor table unreadable: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, path) {
			n++
		}
	}
	return n
}

// TestDamagedSpoolFailsTyped: a spool torn or bit-flipped between
// submit and start fails its job — in-process and on a 2x2 grid — with
// the typed error of the damage, without a hang; the grid workers come
// back idle and no descriptor stays open on the spool.
func TestDamagedSpoolFailsTyped(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0"})
	startGridWorkers(t, s, 4)
	idle := func() int {
		n := 0
		for _, w := range s.GridWorkers() {
			if !w.Busy {
				n++
			}
		}
		return n
	}
	for _, grid := range []bool{false, true} {
		for _, damage := range []struct {
			name string
			do   func(spool []byte) []byte
			want error
		}{
			{"torn", func(b []byte) []byte { return b[:len(b)/2] }, io.ErrUnexpectedEOF},
			{"bit-flipped", func(b []byte) []byte { b[len(b)-100] ^= 1; return b }, dataio.ErrChunkCorrupt},
		} {
			name := fmt.Sprintf("%s grid=%v", damage.name, grid)
			blocker, err := s.SubmitStreaming(dataio.HeaderFromProblem(prob), Params{Algorithm: "serial", Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "blocker running", func() bool { return blocker.State() == Running })
			j, err := s.Submit(prob, Params{Algorithm: "gd", Iterations: 2, MeshRows: 2, MeshCols: 2, Grid: grid})
			if err != nil {
				t.Fatal(err)
			}
			j.mu.Lock()
			path := j.data.path
			j.mu.Unlock()
			spool, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage.do(spool), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.Cancel(blocker.ID()); err != nil {
				t.Fatal(err)
			}
			waitFor(t, name+" job terminal", func() bool { return j.State().Terminal() })
			j.mu.Lock()
			state, jerr := j.state, j.err
			j.mu.Unlock()
			if state != Failed || !errors.Is(jerr, damage.want) {
				t.Errorf("%s: job %v with %v, want failed with %v", name, state, jerr, damage.want)
			}
			waitFor(t, name+": grid workers idle", func() bool { return idle() == 4 })
			waitFor(t, name+": spool released", func() bool { return openSpoolHandles(t, path) == 0 })
		}
	}
}

// TestGridSessionLostMidShardReleasesSpool: a session that fails while
// the hub is still sending shards — one worker drops after the first
// bytes of its own — leaves no descriptor open on the job's spool.
func TestGridSessionLostMidShardReleasesSpool(t *testing.T) {
	prob := gridSetupProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0"})
	startGridWorkers(t, s, 3)
	doomed, err := transport.Dial(s.GridAddr(), transport.DialOptions{Name: "dies-mid-shard"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer doomed.Close()
		if setup, err := doomed.WaitSetup(context.Background(), nil); err == nil {
			io.ReadFull(setup.Shard, make([]byte, 64))
		}
	}()
	waitFor(t, "doomed worker", func() bool { return len(s.GridWorkers()) == 4 })
	j, err := s.Submit(prob, Params{Algorithm: "gd", Iterations: 2, MeshRows: 2, MeshCols: 2, Grid: true})
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	path := j.data.path
	j.mu.Unlock()
	waitFor(t, "job failed", func() bool { return j.State() == Failed })
	waitFor(t, "spool released", func() bool { return openSpoolHandles(t, path) == 0 })
}
