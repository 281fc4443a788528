// Package simmpi provides an MPI-flavored message-passing runtime over
// goroutines: ranks, point-to-point Send/Recv with tags, barriers and
// sum-allreduce. The paper's parallel algorithms are written against
// this interface exactly as they would be against MPI; a rank stands in
// for one GPU.
//
// Semantics follow MPI's eager protocol: Send copies the payload and
// enqueues it immediately (never blocks), Recv blocks until a matching
// message arrives. Every blocking operation carries a deadlock timeout
// so an incorrectly ordered exchange fails a test loudly instead of
// hanging it. Per-rank byte/message counters feed communication-volume
// assertions and the experiment reports.
//
// Payload ownership: the slice passed to Send stays the sender's — it
// was copied before Send returned and may be reused at once. The slice
// Recv returns belongs to the receiver alone until it hands it back
// with Release, after which it must not touch it again: the endpoint
// recycles released buffers (a bounded FreeList per endpoint) for the
// payloads of later messages, which is what keeps a steady exchange
// from allocating. Release is optional — a payload never released is
// never overwritten and is simply garbage-collected.
//
// The Transport interface abstracts the communicator: this package's
// *Comm is the in-process implementation, and internal/transport
// provides a TCP implementation with identical semantics, so the same
// engine code runs single-process or distributed across machines.
package simmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches messages from any sender in Recv.
const AnySource = -1

// Transport is the abstract communicator every parallel engine in this
// repository is written against: MPI-flavored tagged point-to-point
// messaging plus the two collectives the algorithms need. A rank holds
// exactly one Transport endpoint for the lifetime of a run.
//
// Two implementations exist: *Comm (this package), whose world is a set
// of goroutines sharing mailboxes in one process, and
// transport.Client (internal/transport), whose world is a set of
// processes exchanging CRC-framed messages over TCP through a
// coordinator hub. The engines cannot tell them apart — the capstone
// tests assert bit-identical reconstructions across the two.
//
// Contract, matching MPI's eager protocol:
//
//   - Send copies the payload and never blocks; the caller may reuse
//     data as soon as Send returns. Delivery failures on a remote
//     transport surface on the next blocking call.
//   - Recv blocks until a message with matching (src, tag) arrives,
//     FIFO per pair; src may be AnySource. The returned payload is the
//     receiver's alone. Every blocking call carries a deadline and
//     fails with an error wrapping ErrTimeout instead of hanging on a
//     deadlocked exchange.
//   - Release hands a payload this endpoint's Recv returned back for
//     reuse by later messages; the receiver must not touch buf
//     afterwards. It is optional and only for the receiver: a payload
//     never released is never overwritten, just collected. nil, an
//     empty-capacity slice and a buffer from elsewhere are harmless.
//   - Barrier returns once every rank has entered it.
//   - AllreduceSum returns the rank-order sum of x across the world on
//     every rank — rank-order so results are bit-for-bit deterministic
//     regardless of scheduling.
//   - SentBytes/SentMessages are this endpoint's cumulative outgoing
//     payload counters (complex128 = 16 bytes), feeding the
//     communication-volume instrumentation.
type Transport interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []complex128)
	Recv(src, tag int) ([]complex128, error)
	Release(buf []complex128)
	Barrier() error
	AllreduceSum(x float64) (float64, error)
	SentBytes() int64
	SentMessages() int64
}

// DefaultTimeout bounds every blocking operation; tests override it to
// fail fast.
const DefaultTimeout = 30 * time.Second

// ErrTimeout is returned when a blocking operation exceeds the world's
// timeout — almost always a deadlocked exchange pattern.
var ErrTimeout = errors.New("simmpi: blocking operation timed out (deadlock?)")

// FreeListMax is the most buffers a FreeList holds: twice the eight
// neighbours a rank exchanges with at once, so a whole round of
// payloads can sit released while the next is in flight.
const FreeListMax = 16

// FreeList is a bounded list of released payload buffers, the one
// recycling scheme of both transports: Comm.Send's copy and
// transport.Client's decode Take from it, Release Puts back. Safe for
// concurrent use; the zero value is an empty list.
type FreeList struct {
	mu   sync.Mutex
	bufs [][]complex128
}

// Take returns a slice of length n, reusing the smallest held buffer of
// capacity >= n and allocating when there is none. Its contents are
// unspecified: the caller overwrites all n elements.
func (l *FreeList) Take(n int) []complex128 {
	l.mu.Lock()
	best := -1
	for i, b := range l.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]complex128, n)
	}
	buf := l.bufs[best]
	last := len(l.bufs) - 1
	l.bufs[best], l.bufs[last] = l.bufs[last], nil
	l.bufs = l.bufs[:last]
	l.mu.Unlock()
	return buf[:n]
}

// Put hands buf to the list; a list already holding FreeListMax
// buffers leaves it to the collector.
func (l *FreeList) Put(buf []complex128) {
	if cap(buf) == 0 {
		return
	}
	l.mu.Lock()
	if len(l.bufs) < FreeListMax {
		l.bufs = append(l.bufs, buf)
	}
	l.mu.Unlock()
}

// Drop empties the list, leaving what it held to the collector.
func (l *FreeList) Drop() {
	l.mu.Lock()
	l.bufs = nil
	l.mu.Unlock()
}

// Len returns how many buffers the list holds.
func (l *FreeList) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.bufs)
}

// Deadline is the reusable deadline timer of an endpoint on which one
// goroutine at a time waits: re-armed for every blocking call instead of
// a new timer per wait. With go 1.23+ timer semantics, Reset and Stop
// discard an expiry not yet received, so it never fires stale. The zero
// value is ready to use.
type Deadline struct{ t *time.Timer }

// After arms the timer for d and returns its channel.
func (dl *Deadline) After(d time.Duration) <-chan time.Time {
	if dl.t == nil {
		dl.t = time.NewTimer(d)
	} else {
		dl.t.Reset(d)
	}
	return dl.t.C
}

// Stop disarms the timer.
func (dl *Deadline) Stop() {
	if dl.t != nil {
		dl.t.Stop()
	}
}

// Msg is an in-flight message.
type Msg struct {
	Src  int
	Tag  int
	Data []complex128
}

// World owns the mailboxes and synchronization state for one parallel
// run.
type World struct {
	size    int
	timeout time.Duration
	boxes   []*mailbox

	barrierMu  sync.Mutex
	barrierGen int
	barrierCnt int
	barrierCh  chan struct{}

	reduceMu   sync.Mutex
	reduceVals []float64
	reduceGen  int

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

type mailbox struct {
	mu     sync.Mutex
	queue  []Msg
	signal chan struct{}

	bytesIn atomic.Int64

	// free recycles the payloads the rank that owns this mailbox has
	// released, for the copies its own Sends make.
	free FreeList

	// deadline times the owning rank's Recv and Barrier waits; only that
	// rank's goroutine touches it.
	deadline Deadline

	// Outgoing counters of the rank that OWNS this mailbox (not traffic
	// into it) — the per-endpoint view Transport requires.
	bytesOut atomic.Int64
	msgsOut  atomic.Int64
}

// Comm implements Transport over the in-process world.
var _ Transport = (*Comm)(nil)

// Comm is one rank's handle on the world.
type Comm struct {
	rank  int
	world *World
}

// NewWorld creates a world of the given size. timeout <= 0 selects
// DefaultTimeout.
func NewWorld(size int, timeout time.Duration) *World {
	if size <= 0 {
		panic(fmt.Sprintf("simmpi: invalid world size %d", size))
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	w := &World{size: size, timeout: timeout, barrierCh: make(chan struct{})}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = &mailbox{signal: make(chan struct{}, 1)}
	}
	return w
}

// Run executes fn on every rank concurrently and waits for all to
// finish, collecting the first error (rank panics become errors).
func Run(size int, timeout time.Duration, fn func(c *Comm) error) error {
	return NewWorld(size, timeout).RunAll(fn)
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send copies data — into a buffer this rank released earlier when one
// fits — and enqueues it for dst. It never blocks (eager protocol).
func (c *Comm) Send(dst, tag int, data []complex128) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("simmpi: send to invalid rank %d (size %d)", dst, c.world.size))
	}
	own := c.world.boxes[c.rank]
	cp := own.free.Take(len(data))
	copy(cp, data)
	m := Msg{Src: c.rank, Tag: tag, Data: cp}
	box := c.world.boxes[dst]
	box.mu.Lock()
	box.queue = append(box.queue, m)
	box.mu.Unlock()
	select {
	case box.signal <- struct{}{}:
	default:
	}
	nbytes := int64(16 * len(data))
	c.world.bytesSent.Add(nbytes)
	c.world.msgsSent.Add(1)
	box.bytesIn.Add(nbytes)
	own.bytesOut.Add(nbytes)
	own.msgsOut.Add(1)
}

// SentBytes returns the payload bytes this rank has sent.
func (c *Comm) SentBytes() int64 { return c.world.boxes[c.rank].bytesOut.Load() }

// SentMessages returns the number of messages this rank has sent.
func (c *Comm) SentMessages() int64 { return c.world.boxes[c.rank].msgsOut.Load() }

// Release hands a payload Recv returned back to this rank for the
// copies of its later Sends. The caller must not touch buf afterwards.
func (c *Comm) Release(buf []complex128) { c.world.boxes[c.rank].free.Put(buf) }

// Recv blocks until a message with matching source and tag arrives and
// returns its payload. src may be AnySource. Matching is FIFO per
// (src, tag) pair.
func (c *Comm) Recv(src, tag int) ([]complex128, error) {
	box := c.world.boxes[c.rank]
	deadline := time.Now().Add(c.world.timeout)
	for {
		box.mu.Lock()
		for i, m := range box.queue {
			if (src == AnySource || m.Src == src) && m.Tag == tag {
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				box.mu.Unlock()
				return m.Data, nil
			}
		}
		box.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("%w: rank %d waiting for src=%d tag=%d",
				ErrTimeout, c.rank, src, tag)
		}
		select {
		case <-box.signal:
			box.deadline.Stop()
		case <-box.deadline.After(wait):
			return nil, fmt.Errorf("%w: rank %d waiting for src=%d tag=%d",
				ErrTimeout, c.rank, src, tag)
		}
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	w := c.world
	w.barrierMu.Lock()
	gen := w.barrierGen
	w.barrierCnt++
	if w.barrierCnt == w.size {
		w.barrierCnt = 0
		w.barrierGen++
		close(w.barrierCh)
		w.barrierCh = make(chan struct{})
		w.barrierMu.Unlock()
		return nil
	}
	ch := w.barrierCh
	w.barrierMu.Unlock()

	dl := &w.boxes[c.rank].deadline
	defer dl.Stop()
	select {
	case <-ch:
		return nil
	case <-dl.After(w.timeout):
		return fmt.Errorf("%w: rank %d in barrier generation %d", ErrTimeout, c.rank, gen)
	}
}

// AllreduceSum returns the sum of x across all ranks on every rank. The
// reduction is performed in rank order so results are bit-for-bit
// deterministic across runs regardless of goroutine scheduling.
func (c *Comm) AllreduceSum(x float64) (float64, error) {
	w := c.world
	w.reduceMu.Lock()
	if w.reduceVals == nil {
		w.reduceVals = make([]float64, w.size)
	}
	w.reduceVals[c.rank] = x
	w.reduceMu.Unlock()
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	w.reduceMu.Lock()
	var sum float64
	for _, v := range w.reduceVals {
		sum += v
	}
	gen := w.reduceGen
	w.reduceMu.Unlock()
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	// The first rank through the second barrier resets the slots for
	// the next reduction; the generation counter guards double resets.
	w.reduceMu.Lock()
	if w.reduceGen == gen {
		for i := range w.reduceVals {
			w.reduceVals[i] = 0
		}
		w.reduceGen++
	}
	w.reduceMu.Unlock()
	return sum, nil
}

// BytesSent returns the total payload bytes sent across the world.
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the total message count across the world.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// BytesReceivedBy returns payload bytes delivered into rank's mailbox.
func (w *World) BytesReceivedBy(rank int) int64 { return w.boxes[rank].bytesIn.Load() }

// World returns the communicator's world, exposing counters to the
// harness that launched Run via NewWorld + manual goroutines.
func (c *Comm) World() *World { return c.world }

// RunAll executes fn on every rank of an existing world (the caller
// keeps the world handle for counter inspection).
func (w *World) RunAll(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(&Comm{rank: rank, world: w})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
