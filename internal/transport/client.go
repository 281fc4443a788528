package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ptychopath/internal/simmpi"
	"ptychopath/internal/wire"
)

// Client is a worker's endpoint on the grid: one persistent TCP
// connection to the coordinator hub, reused across sessions. Between
// sessions the client idles in WaitSetup; during a session it
// implements simmpi.Transport for exactly one rank, so the parallel
// engines run over it unmodified.
//
// Concurrency contract: one goroutine drives the session (the rank
// loop); the internal reader goroutine is the only other actor. The
// blocking operations are not safe for concurrent use with each other —
// the same contract a simmpi rank has.
type Client struct {
	conn    net.Conn
	name    string
	id      int
	timeout time.Duration

	// wmu serializes frame writes. Outgoing frames are batched into
	// wbuf — small collective and progress frames coalesce into one
	// kernel write — and flushed when the batch passes flushThreshold
	// or, crucially, before EVERY operation that blocks on a reply
	// (await, WaitSetup, SendResult, Close): nothing this endpoint
	// waits on can depend on bytes still sitting in its own buffer.
	wmu  sync.Mutex
	wbuf []byte

	mu            sync.Mutex
	signal        chan struct{}   // pulsed on every state change; single waiter
	deadline      simmpi.Deadline // times the single waiter's await
	inbox         []message
	setups        []*Setup
	shard         *shardPipe // of the Setup WaitSetup last returned; nil without one
	barriers      int        // pending barrier releases
	reduces       []float64
	snapAcks      []error
	fatal         error  // connection dead — permanent
	sessErr       error  // current session aborted — cleared on the next SETUP
	onCancel      func() // session cancel hook (frameCancel)
	pendingCancel bool   // a frameCancel arrived before the hook was installed

	rank, size int
	sentBytes  int64
	sentMsgs   int64

	// free recycles the DATA payloads the session goroutine has released
	// for the read loop's next decodes.
	free simmpi.FreeList
}

type message struct {
	src, tag int
	data     []complex128
}

// Client implements simmpi.Transport during a session.
var _ simmpi.Transport = (*Client)(nil)

// DialOptions configures a worker connection.
type DialOptions struct {
	// Name identifies the worker in the hub's registry (hostname-pid by
	// default).
	Name string
	// Timeout bounds every blocking operation between frames; sessions
	// override it with their Setup.TimeoutMS. 0 selects
	// simmpi.DefaultTimeout.
	Timeout time.Duration
}

// Dial connects to a hub, performs the hello/welcome handshake, and
// returns the registered client. A hub speaking a different
// ProtoVersion yields ErrVersionMismatch.
func Dial(addr string, opts DialOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c, err := newClient(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func newClient(conn net.Conn, opts DialOptions) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = simmpi.DefaultTimeout
	}
	c := &Client{
		conn:    conn,
		name:    opts.Name,
		timeout: opts.Timeout,
		signal:  make(chan struct{}, 1),
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hello := append(wire.AppendUint32(nil, ProtoVersion), opts.Name...)
	if err := writeFrame(conn, frame{typ: frameHello, dst: hubRank, payload: hello}); err != nil {
		return nil, fmt.Errorf("transport: handshake send: %w", err)
	}
	fr, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	switch fr.typ {
	case frameWelcome:
		if len(fr.payload) < 8 {
			return nil, fmt.Errorf("%w: short welcome", ErrFrameCorrupt)
		}
		v := wire.Uint32(fr.payload)
		if v != ProtoVersion {
			return nil, fmt.Errorf("%w: hub speaks v%d, client v%d", ErrVersionMismatch, v, ProtoVersion)
		}
		c.id = int(int32(wire.Uint32(fr.payload[4:])))
	case frameError:
		return nil, decodeError(fr.payload)
	default:
		return nil, fmt.Errorf("%w: unexpected handshake frame 0x%02x", ErrFrameCorrupt, fr.typ)
	}
	conn.SetDeadline(time.Time{})
	go c.readLoop()
	return c, nil
}

// ID returns the hub-assigned worker id.
func (c *Client) ID() int { return c.id }

// pulse wakes the (single) waiting goroutine.
func (c *Client) pulse() {
	select {
	case c.signal <- struct{}{}:
	default:
	}
}

// shardPipe lends the read loop's SHARD payloads to the session
// goroutine one frame at a time: the reader sees the connection's own
// read scratch, and the read loop does not touch the connection again
// until the frame is handed back — no copy, and never more of a shard in
// memory than the frame that just arrived.
type shardPipe struct {
	frames chan []byte   // read loop → reader; closed, after err is set, when the shard ends
	taken  chan struct{} // reader → read loop: done with the lent frame (buffer of one: the single loan)
	quit   chan struct{} // closed by the next WaitSetup: nobody will read the rest
	err    error         // io.EOF after a complete shard, else why it broke off

	// Reader side only.
	timeout  time.Duration
	deadline simmpi.Deadline
	cur      []byte // unread rest of the lent frame
}

func newShardPipe() *shardPipe {
	return &shardPipe{
		frames: make(chan []byte),
		taken:  make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
}

// lend hands one SHARD payload to the reader and waits until it is
// consumed. False means the reader abandoned the shard. Read loop only.
func (p *shardPipe) lend(payload []byte) bool {
	select {
	case p.frames <- payload:
	case <-p.quit:
		return false
	}
	select {
	case <-p.taken:
		return true
	case <-p.quit:
		return false
	}
}

// end closes the shard: the reader drains nothing further and gets err
// (io.EOF for a complete shard). Read loop only, once.
func (p *shardPipe) end(err error) {
	p.err = err
	close(p.frames)
}

// Read implements io.Reader over the frames as they arrive. It blocks
// at most the session timeout for the next one, and hands a frame back
// with the Read that drains it: the reader of a complete stream never
// calls Read again, and the read loop must not wait for it to.
func (p *shardPipe) Read(b []byte) (int, error) {
	if len(p.cur) == 0 {
		defer p.deadline.Stop()
		select {
		case f, ok := <-p.frames:
			if !ok {
				return 0, p.err
			}
			p.cur = f
		case <-p.deadline.After(p.timeout):
			return 0, fmt.Errorf("%w: waiting for the next shard frame", simmpi.ErrTimeout)
		}
	}
	n := copy(b, p.cur)
	p.cur = p.cur[n:]
	if len(p.cur) == 0 {
		p.taken <- struct{}{}
	}
	return n, nil
}

// readLoop is the sole frame reader: it classifies incoming frames into
// the client's queues and wakes the session goroutine.
func (c *Client) readLoop() {
	rd := frameReader{r: c.conn}
	// shard receives the SHARD frames of the session the latest SETUP
	// opened; nil when that session has none, its shard is complete, or
	// its reader gave up.
	var shard *shardPipe
	endShard := func(err error) {
		if shard != nil {
			shard.end(err)
			shard = nil
		}
	}
	defer func() { endShard(c.Err()) }() // every return below is a fatal one
	for {
		fr, err := rd.read()
		if err != nil {
			c.setFatal(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		switch fr.typ {
		case frameSetup:
			s, hasShard, err := decodeSetup(fr.payload)
			if err != nil {
				c.setFatal(err)
				return
			}
			endShard(io.ErrUnexpectedEOF) // the hub moved on mid-shard
			if hasShard {
				shard = newShardPipe()
				s.Shard = shard
			}
			c.mu.Lock()
			// A SETUP opens a fresh session: everything still queued
			// belongs to a previous one (per-connection TCP ordering —
			// the hub never interleaves new-session traffic before the
			// SETUP), so clear it HERE, not in WaitSetup, where traffic
			// that raced ahead of the pop would be wiped with it.
			c.inbox = nil
			c.barriers = 0
			c.reduces = nil
			c.snapAcks = nil
			c.sessErr = nil
			c.onCancel = nil
			c.pendingCancel = false
			c.setups = append(c.setups, s)
			c.mu.Unlock()
			c.free.Drop() // sized by the last job's messages
			c.pulse()
		case frameShard:
			switch {
			case shard == nil: // a session that failed while its shard was in flight
			case len(fr.payload) == 0:
				endShard(io.EOF)
			case !shard.lend(fr.payload):
				shard = nil
			}
		case frameData:
			if len(fr.payload)%16 != 0 {
				c.setFatal(fmt.Errorf("%w: data payload %d bytes is not a complex128 array", ErrFrameCorrupt, len(fr.payload)))
				return
			}
			data := c.free.Take(len(fr.payload) / 16)
			wire.Complex128s(data, fr.payload)
			c.mu.Lock()
			c.inbox = append(c.inbox, message{src: int(fr.src), tag: int(fr.tag), data: data})
			c.mu.Unlock()
			c.pulse()
		case frameBarrierOK:
			c.mu.Lock()
			c.barriers++
			c.mu.Unlock()
			c.pulse()
		case frameReduceOK:
			if len(fr.payload) < 8 {
				c.setFatal(fmt.Errorf("%w: short reduce result", ErrFrameCorrupt))
				return
			}
			c.mu.Lock()
			c.reduces = append(c.reduces, wire.Float64(fr.payload))
			c.mu.Unlock()
			c.pulse()
		case frameSnapshotOK:
			var ack error
			if len(fr.payload) == 0 || fr.payload[0] != 0 {
				msg := "snapshot rejected"
				if len(fr.payload) > 1 {
					msg = string(fr.payload[1:])
				}
				ack = fmt.Errorf("transport: coordinator: %s", msg)
			}
			c.mu.Lock()
			c.snapAcks = append(c.snapAcks, ack)
			c.mu.Unlock()
			c.pulse()
		case frameCancel:
			c.mu.Lock()
			fn := c.onCancel
			if fn == nil {
				// The session goroutine has not installed its hook yet
				// (the cancel raced the WaitSetup pop); deliver it then.
				c.pendingCancel = true
			}
			c.mu.Unlock()
			if fn != nil {
				fn()
			}
		case frameError:
			// Session-level abort: the connection stays healthy, the
			// current session's blocking operations fail — a shard read
			// included.
			err := decodeError(fr.payload)
			c.mu.Lock()
			c.sessErr = err
			c.mu.Unlock()
			endShard(err)
			c.pulse()
		default:
			c.setFatal(fmt.Errorf("%w: unexpected frame 0x%02x", ErrFrameCorrupt, fr.typ))
			return
		}
	}
}

func (c *Client) setFatal(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.mu.Unlock()
	c.pulse()
}

// failed returns the error that should interrupt a blocking operation,
// or nil. Caller holds c.mu.
func (c *Client) failedLocked() error {
	if c.fatal != nil {
		return c.fatal
	}
	return c.sessErr
}

// await blocks until ready() reports true (under c.mu) or the deadline,
// a connection failure, or a session abort intervenes. what describes
// the wait, and is called only to word the timeout error.
func (c *Client) await(ready func() bool, what func() string) error {
	c.flush() // whatever we wait on may depend on our batched frames
	deadline := time.Now().Add(c.timeout)
	c.mu.Lock()
	for {
		if err := c.failedLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
		if ready() {
			c.mu.Unlock()
			return nil
		}
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("%w: rank %d %s", simmpi.ErrTimeout, c.rank, what())
		}
		select {
		case <-c.signal:
			c.deadline.Stop()
		case <-c.deadline.After(wait):
			return fmt.Errorf("%w: rank %d %s", simmpi.ErrTimeout, c.rank, what())
		}
		c.mu.Lock()
	}
}

// WaitSetup blocks until the coordinator opens a session on this
// connection and returns its Setup as soon as the header has arrived;
// Setup.Shard, when the session has one, then reads the shard while the
// rest of it is still in flight. It installs onCancel as the
// frameCancel hook, and whatever the caller left unread of the previous
// session's shard is discarded, so a session that failed mid-decode
// cannot stall the connection. ctx bounds the idle wait; a closed
// connection returns the underlying error.
func (c *Client) WaitSetup(ctx context.Context, onCancel func()) (*Setup, error) {
	c.flush() // a previous session's last frames must not sit batched
	stop := context.AfterFunc(ctx, c.pulse)
	defer stop()
	var setup *Setup
	c.mu.Lock()
	if c.shard != nil {
		close(c.shard.quit)
		c.shard = nil
	}
	for {
		if c.fatal != nil {
			err := c.fatal
			c.mu.Unlock()
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if len(c.setups) > 0 {
			setup = c.setups[0]
			c.setups = c.setups[1:]
			break
		}
		c.mu.Unlock()
		<-c.signal
		c.mu.Lock()
	}
	// Per-session queues were already reset when the SETUP frame
	// arrived (see readLoop); here we only bind the session hooks.
	c.onCancel = onCancel
	deliverCancel := c.pendingCancel && onCancel != nil
	c.pendingCancel = false
	c.rank = setup.Rank
	c.size = setup.Size
	if setup.TimeoutMS > 0 {
		c.timeout = time.Duration(setup.TimeoutMS) * time.Millisecond
	}
	if setup.Shard != nil {
		c.shard = setup.Shard.(*shardPipe)
		c.shard.timeout = c.timeout
	}
	c.mu.Unlock()
	if deliverCancel {
		onCancel()
	}
	return setup, nil
}

// flushThreshold bounds the outgoing batch: a frame that pushes the
// buffer past it is written out immediately, so large DATA payloads
// go straight to the kernel while small gradient-iteration frames
// (barrier, reduce, iter stats) coalesce into one write per flush.
const flushThreshold = 64 << 10

// send queues one frame for dst on the outgoing batch, flushing when it
// passes flushThreshold. body, when non-nil, appends the payload in
// place — the batch buffer is the only copy a payload gets on its way
// out. A write failure is recorded as fatal (it surfaces on the next
// blocking operation, matching the eager Send contract).
func (c *Client) send(typ uint8, dst, tag int, body func([]byte) []byte) {
	c.wmu.Lock()
	buf, start := beginFrame(c.wbuf, typ, int32(c.rank), int32(dst), int32(tag))
	if body != nil {
		buf = body(buf)
	}
	buf, err := endFrame(buf, start)
	c.wbuf = buf
	if err == nil && len(c.wbuf) >= flushThreshold {
		err = c.flushLocked()
	}
	c.wmu.Unlock()
	if err != nil {
		c.setFatal(fmt.Errorf("transport: send: %w", err))
	}
}

// flush writes out any batched frames. Called before every blocking
// wait — the deadlock-freedom rule of the batching scheme.
func (c *Client) flush() {
	c.wmu.Lock()
	err := c.flushLocked()
	c.wmu.Unlock()
	if err != nil {
		c.setFatal(fmt.Errorf("transport: send: %w", err))
	}
}

func (c *Client) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Rank returns this endpoint's rank in the current session.
func (c *Client) Rank() int { return c.rank }

// Size returns the current session's world size.
func (c *Client) Size() int { return c.size }

// Send transmits data to dst with the given tag (eager: never blocks
// on the receiver; data is framed into the outgoing batch before Send
// returns, the frame may ride the batch until the next flush, and a
// delivery failure surfaces on the next blocking call).
func (c *Client) Send(dst, tag int, data []complex128) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("transport: send to invalid rank %d (size %d)", dst, c.size))
	}
	c.send(frameData, dst, tag, func(b []byte) []byte { return wire.AppendComplex128s(b, data) })
	c.mu.Lock()
	c.sentBytes += int64(16 * len(data))
	c.sentMsgs++
	c.mu.Unlock()
}

// Recv blocks until a message with matching (src, tag) arrives — FIFO
// per pair, src may be simmpi.AnySource — or the deadline fires.
func (c *Client) Recv(src, tag int) ([]complex128, error) {
	var data []complex128
	err := c.await(func() bool {
		for i, m := range c.inbox {
			if (src == simmpi.AnySource || m.src == src) && m.tag == tag {
				data = m.data
				c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
				return true
			}
		}
		return false
	}, func() string { return fmt.Sprintf("waiting for src=%d tag=%d", src, tag) })
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Release hands a payload Recv returned back for the read loop's later
// decodes. The caller must not touch buf afterwards.
func (c *Client) Release(buf []complex128) { c.free.Put(buf) }

// Barrier blocks until every rank of the session has entered it (the
// hub counts entries and broadcasts the release).
func (c *Client) Barrier() error {
	c.send(frameBarrier, hubRank, 0, nil)
	return c.await(func() bool {
		if c.barriers > 0 {
			c.barriers--
			return true
		}
		return false
	}, func() string { return "in barrier" })
}

// AllreduceSum returns the sum of x across all ranks. The hub
// accumulates contributions in rank order, so the result is bit-for-bit
// deterministic and identical to the in-process world's.
func (c *Client) AllreduceSum(x float64) (float64, error) {
	c.send(frameReduce, hubRank, 0, func(b []byte) []byte { return wire.AppendFloat64(b, x) })
	var sum float64
	err := c.await(func() bool {
		if len(c.reduces) > 0 {
			sum = c.reduces[0]
			c.reduces = c.reduces[1:]
			return true
		}
		return false
	}, func() string { return "in allreduce" })
	return sum, err
}

// SentBytes returns this endpoint's cumulative outgoing payload bytes.
func (c *Client) SentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentBytes
}

// SentMessages returns this endpoint's cumulative outgoing messages.
func (c *Client) SentMessages() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentMsgs
}

// SendIteration reports rank 0's per-iteration progress to the
// coordinator (fire-and-forget; drives job progress and SSE events).
func (c *Client) SendIteration(iter int, cost float64) {
	c.send(frameIter, hubRank, 0, func(b []byte) []byte {
		return wire.AppendFloat64(wire.AppendInt64(b, int64(iter)), cost)
	})
}

// SendIterStats reports this rank's compute/communication time split
// for one iteration (fire-and-forget; feeds the coordinator's span
// trace). Every rank sends one per iteration; the hub discriminates
// the 24-byte stats payload from the 16-byte progress payload by
// length.
func (c *Client) SendIterStats(iter int, computeNS, commNS int64) {
	c.send(frameIter, hubRank, 0, func(b []byte) []byte {
		return wire.AppendInt64(wire.AppendInt64(wire.AppendInt64(b, int64(iter)), computeNS), commNS)
	})
}

// SendSnapshot ships a stitched object snapshot (opaque OBJCKv1 bytes)
// to the coordinator and waits for the acknowledgement — the
// coordinator writes the checkpoint before the run proceeds, mirroring
// the synchronous OnSnapshot contract of the engines. A rejected
// snapshot returns the coordinator's error, aborting the run on every
// rank through the engines' collective verdict.
func (c *Client) SendSnapshot(iter int, object []byte) error {
	c.send(frameSnapshot, hubRank, 0, func(b []byte) []byte {
		return append(wire.AppendInt64(b, int64(iter)), object...)
	})
	var ack error
	err := c.await(func() bool {
		if len(c.snapAcks) > 0 {
			ack = c.snapAcks[0]
			c.snapAcks = c.snapAcks[1:]
			return true
		}
		return false
	}, func() string { return "waiting for snapshot ack" })
	if err != nil {
		return err
	}
	return ack
}

// SendResult ships this rank's outcome, ending its part of the session.
// The hub returns the worker to the idle pool on receipt.
func (c *Client) SendResult(res *RankResult) error {
	c.wmu.Lock()
	buf, start := beginFrame(c.wbuf, frameResult, int32(c.rank), hubRank, 0)
	buf, err := endFrame(appendResult(buf, res), start)
	c.wbuf = buf
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.flush() // the hub frees this worker only once the RESULT arrives
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fatal
}

// Err returns the connection's fatal error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fatal
}

// Close performs the graceful teardown: a goodbye frame, then the
// connection closes. Safe to call more than once.
func (c *Client) Close() error {
	c.wmu.Lock()
	if buf, err := appendFrame(c.wbuf, frame{typ: frameGoodbye, dst: hubRank}); err == nil {
		c.wbuf = buf
	}
	c.flushLocked()
	c.wmu.Unlock()
	c.setFatal(ErrClosed)
	return c.conn.Close()
}
