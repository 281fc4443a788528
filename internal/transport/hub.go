package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptychopath/internal/simmpi"
	"ptychopath/internal/wire"
)

// Hub is the coordinator's side of the grid: it accepts worker
// connections (rendezvous + version handshake), keeps the registry of
// idle workers, and routes session traffic — DATA frames rank-to-rank,
// barrier counting, rank-ordered allreduce sums, snapshot and progress
// relay. One Hub serves many sessions over the workers' persistent
// connections; a worker participates in at most one session at a time.
type Hub struct {
	ln net.Listener

	mu      sync.Mutex
	workers map[int]*hubConn
	nextID  int
	closed  bool

	bytesRouted atomic.Int64
	msgsRouted  atomic.Int64
	sessions    atomic.Int64
}

// hubConn is one worker's registered connection.
type hubConn struct {
	id   int
	name string
	conn net.Conn

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // per-connection encode scratch, guarded by wmu

	// Per-connection liveness and traffic counters, surfaced via
	// Workers() for the fleet-health endpoints. lastSeen is unix nanos
	// of the most recent frame read from the worker (registration time
	// until the first frame arrives).
	lastSeen atomic.Int64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	msgs     atomic.Int64
	sessCnt  atomic.Int64

	mu   sync.Mutex
	sess *Session // nil while idle
	rank int
	done bool // this rank's RESULT arrived for the current session
}

// NewHub starts a hub on the given listener and begins accepting
// workers. Close the hub to stop.
func NewHub(ln net.Listener) *Hub {
	h := &Hub{ln: ln, workers: make(map[int]*hubConn)}
	go h.acceptLoop()
	return h
}

// Listen is the net.Listen + NewHub convenience.
func Listen(addr string) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return NewHub(ln), nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// BytesRouted returns the cumulative DATA payload bytes the hub has
// forwarded between ranks.
func (h *Hub) BytesRouted() int64 { return h.bytesRouted.Load() }

// MessagesRouted returns the cumulative DATA frames forwarded.
func (h *Hub) MessagesRouted() int64 { return h.msgsRouted.Load() }

// SessionsStarted returns the number of sessions the hub has opened.
func (h *Hub) SessionsStarted() int64 { return h.sessions.Load() }

// Close stops accepting and closes every worker connection.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	conns := make([]*hubConn, 0, len(h.workers))
	for _, w := range h.workers {
		conns = append(conns, w)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, w := range conns {
		w.conn.Close()
	}
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go h.serveConn(conn)
	}
}

// serveConn performs the handshake and then pumps the worker's frames
// for the rest of the connection's life.
func (h *Hub) serveConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rd := frameReader{r: conn}
	fr, err := rd.read()
	if err != nil || fr.typ != frameHello || len(fr.payload) < 4 {
		conn.Close()
		return
	}
	v := wire.Uint32(fr.payload)
	if v != ProtoVersion {
		// Version mismatch: tell the client precisely why, then hang up.
		writeFrame(conn, frame{typ: frameError, src: hubRank,
			payload: errorPayload(codeVersion, fmt.Sprintf("hub speaks v%d, worker sent v%d", ProtoVersion, v))})
		conn.Close()
		return
	}
	name := string(fr.payload[4:])

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.nextID++
	w := &hubConn{id: h.nextID, name: name, conn: conn}
	h.mu.Unlock()

	// WELCOME must be on the wire before the worker becomes leasable:
	// registering first would let a concurrent StartSession write its
	// SETUP ahead of the handshake reply.
	welcome := wire.AppendUint32(wire.AppendUint32(nil, v), uint32(w.id))
	if err := w.write(frame{typ: frameWelcome, src: hubRank, payload: welcome}); err != nil {
		conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	h.workers[w.id] = w
	h.mu.Unlock()
	conn.SetDeadline(time.Time{})
	w.lastSeen.Store(time.Now().UnixNano())

	for {
		fr, err := rd.read()
		if err != nil {
			h.drop(w, err)
			return
		}
		w.lastSeen.Store(time.Now().UnixNano())
		w.msgs.Add(1)
		w.bytesIn.Add(int64(len(fr.payload)))
		if fr.typ == frameGoodbye {
			h.drop(w, nil)
			return
		}
		w.mu.Lock()
		sess := w.sess
		w.mu.Unlock()
		if sess == nil {
			continue // stale frame from an already-finished session
		}
		sess.handle(w, fr)
	}
}

// drop unregisters a worker connection; if it was mid-session the
// session fails (the capstone "worker disconnect" path).
func (h *Hub) drop(w *hubConn, err error) {
	h.mu.Lock()
	delete(h.workers, w.id)
	h.mu.Unlock()
	w.conn.Close()
	w.mu.Lock()
	sess := w.sess
	w.sess = nil
	w.mu.Unlock()
	if sess != nil {
		reason := fmt.Errorf("%w: worker %d (%s) disconnected", ErrPeerLost, w.id, w.name)
		if err != nil && !errors.Is(err, net.ErrClosed) {
			reason = fmt.Errorf("%w: worker %d (%s): %v", ErrPeerLost, w.id, w.name, err)
		}
		sess.fail(reason)
	}
}

func (w *hubConn) write(f frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.bytesOut.Add(int64(len(f.payload)))
	buf, err := appendFrame(w.wbuf[:0], f)
	w.wbuf = buf
	if err != nil {
		return err
	}
	_, err = w.conn.Write(buf)
	return err
}

// writeBy writes buf under a deadline. SETUP and SHARD are the writes
// big enough to fill the receive window of a worker that stopped
// reading; without a deadline such a worker would park its writer — and
// everything queued behind the write locks it holds — forever. The
// caller holds wmu.
func (w *hubConn) writeBy(buf []byte, timeout time.Duration) error {
	w.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := w.conn.Write(buf)
	w.conn.SetWriteDeadline(time.Time{})
	return err
}

// WorkerInfo describes one registered worker for status endpoints:
// identity, lease state, last-seen liveness, and the connection's
// cumulative traffic/session counters.
type WorkerInfo struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Busy bool   `json:"busy"`
	// LastSeen is when the hub last read a frame from this worker
	// (its registration time until the first frame).
	LastSeen time.Time `json:"last_seen"`
	// BytesIn/BytesOut count frame payload bytes received from / sent
	// to the worker over the connection's whole life; Messages counts
	// frames received; Sessions counts session leases.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	Messages int64 `json:"messages"`
	Sessions int64 `json:"sessions"`
}

// Workers lists the registered workers, idle and busy, in id order.
func (h *Hub) Workers() []WorkerInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WorkerInfo, 0, len(h.workers))
	for _, w := range h.workers {
		w.mu.Lock()
		busy := w.sess != nil
		w.mu.Unlock()
		out = append(out, WorkerInfo{
			ID: w.id, Name: w.name, Busy: busy,
			LastSeen: time.Unix(0, w.lastSeen.Load()),
			BytesIn:  w.bytesIn.Load(),
			BytesOut: w.bytesOut.Load(),
			Messages: w.msgs.Load(),
			Sessions: w.sessCnt.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IdleWorkers returns how many registered workers are not in a session.
func (h *Hub) IdleWorkers() int {
	n := 0
	for _, w := range h.Workers() {
		if !w.Busy {
			n++
		}
	}
	return n
}

// SessionCallbacks receive a session's relayed progress on hub-side
// goroutines. OnSnapshot blocks rank 0 until it returns (synchronous
// checkpointing); a non-nil error aborts the run on every rank.
// OnRankTiming receives every rank's per-iteration compute/comm time
// split (the v2 extended ITER frames) and may be called concurrently
// for different ranks.
type SessionCallbacks struct {
	OnIteration  func(iter int, cost float64)
	OnSnapshot   func(iter int, object []byte) error
	OnRankTiming func(rank, iter int, computeNS, commNS int64)
}

// ErrNoWorkers is returned by StartSession when fewer idle workers are
// registered than the session needs.
var ErrNoWorkers = errors.New("transport: not enough idle grid workers")

// Session is one distributed reconstruction in flight: size ranks
// pinned to size workers, traffic routed until every rank's RankResult
// arrives or a member is lost.
type Session struct {
	hub  *Hub
	size int
	cb   SessionCallbacks

	mu         sync.Mutex
	members    []*hubConn // index = rank
	barrierCnt int
	reduceVals []float64
	reduceSeen []bool
	reduceCnt  int
	results    []*RankResult
	resultCnt  int
	err        error
	finished   bool
	done       chan struct{}
}

// StartSession leases len(setups) idle workers (lowest ids first, so
// placement is deterministic), assigns setups[i] to the i-th of them
// with Rank/Size filled in, and begins routing. It fails with
// ErrNoWorkers when the pool is too small — the caller decides whether
// to queue or fail the job.
func (h *Hub) StartSession(setups []*Setup, cb SessionCallbacks) (*Session, error) {
	size := len(setups)
	if size == 0 {
		return nil, fmt.Errorf("transport: empty session")
	}
	s := &Session{
		hub: h, size: size, cb: cb,
		reduceVals: make([]float64, size),
		reduceSeen: make([]bool, size),
		results:    make([]*RankResult, size),
		done:       make(chan struct{}),
	}

	// Lease idle workers under the hub lock so concurrent sessions
	// cannot double-book a worker.
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	ids := make([]int, 0, len(h.workers))
	for id := range h.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if len(s.members) == size {
			break
		}
		w := h.workers[id]
		w.mu.Lock()
		if w.sess == nil {
			w.sess = s
			w.rank = len(s.members)
			w.done = false
			s.members = append(s.members, w)
		}
		w.mu.Unlock()
	}
	h.mu.Unlock()
	if len(s.members) < size {
		got := len(s.members)
		s.release()
		return nil, fmt.Errorf("%w: need %d, have %d idle", ErrNoWorkers, size, got)
	}

	h.sessions.Add(1)
	for _, w := range s.members {
		w.sessCnt.Add(1)
	}
	// Every SETUP header goes out under ALL members' write locks. Routing
	// is already live (the members are leased), so a rank that receives
	// its SETUP early can have its first halo message routed to a peer
	// before that peer's own SETUP is written — and the client clears
	// its queues when a SETUP arrives, wiping the early message and
	// wedging the session. Holding the write locks parks any routed
	// frame until every SETUP is on the wire. The shards are not part of
	// that: they follow below, each under its own connection's lock only.
	for _, w := range s.members {
		w.wmu.Lock()
	}
	var err error
	sent := 0 // ranks whose SETUP is on the wire
	for ; sent < size; sent++ {
		w, setup := s.members[sent], setups[sent]
		setup.Rank, setup.Size = sent, size
		buf, start := beginFrame(w.wbuf[:0], frameSetup, hubRank, int32(sent), 0)
		if buf, err = endFrame(appendSetup(buf, setup), start); err == nil {
			w.bytesOut.Add(int64(len(buf) - frameOverhead))
			err = w.writeBy(buf, writeTimeout(setup))
		}
		w.wbuf = buf[:0]
		if err != nil {
			break
		}
	}
	for _, w := range s.members {
		w.wmu.Unlock()
	}
	if err != nil {
		// The rank whose SETUP failed is gone and the ranks after it were
		// never told of the session, so neither will ever send the RESULT
		// that returns a member to the pool: drop the one, detach the
		// others. The ranks before it unwind as in any failed session.
		for _, w := range s.members[sent+1:] {
			w.mu.Lock()
			w.sess = nil
			w.mu.Unlock()
		}
		h.drop(s.members[sent], err)
		return s, nil // Wait surfaces the failure
	}
	for rank, setup := range setups {
		if setup.Shard != nil {
			go s.sendShard(s.members[rank], rank, setup.Shard, writeTimeout(setup))
		}
	}
	return s, nil
}

// writeTimeout is the deadline of a session's SETUP and SHARD writes.
func writeTimeout(setup *Setup) time.Duration {
	if setup.TimeoutMS > 0 {
		return time.Duration(setup.TimeoutMS) * time.Millisecond
	}
	return simmpi.DefaultTimeout
}

// shardBufs holds the maxShardFrame buffers sendShard reads its source
// into before it takes the connection's write lock.
var shardBufs = sync.Pool{New: func() any { return new([maxShardFrame]byte) }}

// sendShard streams one rank's shard: one Read of src per SHARD frame,
// then the empty frame that ends the shard. A source error fails the
// session. Nothing waits for it: it ends with the shard, or at its next
// frame once the session is over, and no write outlasts its deadline.
func (s *Session) sendShard(w *hubConn, rank int, src io.Reader, timeout time.Duration) {
	piece := shardBufs.Get().(*[maxShardFrame]byte)
	defer shardBufs.Put(piece)
	for {
		n, err := src.Read(piece[:])
		if err != nil && err != io.EOF {
			s.fail(fmt.Errorf("transport: rank %d shard: %w", rank, err))
			return
		}
		if n > 0 && !s.writeShard(w, rank, piece[:n], timeout) {
			return
		}
		if err == io.EOF {
			s.writeShard(w, rank, nil, timeout)
			return
		}
	}
}

// writeShard writes one SHARD frame and reports whether to go on. It
// stops once the session is over or the worker has left it — a stale
// SHARD must never follow another session's SETUP onto the connection —
// and a write that fails or misses its deadline drops the worker, which
// fails the session with ErrPeerLost.
func (s *Session) writeShard(w *hubConn, rank int, payload []byte, timeout time.Duration) bool {
	w.wmu.Lock()
	s.mu.Lock()
	live := !s.finished
	s.mu.Unlock()
	w.mu.Lock()
	live = live && w.sess == s
	w.mu.Unlock()
	if !live {
		w.wmu.Unlock()
		return false
	}
	buf, err := appendFrame(w.wbuf[:0], frame{typ: frameShard, src: hubRank, dst: int32(rank), payload: payload})
	w.wbuf = buf
	if err == nil {
		w.bytesOut.Add(int64(len(payload)))
		err = w.writeBy(buf, timeout)
	}
	w.wmu.Unlock()
	if err != nil {
		s.hub.drop(w, err)
		return false
	}
	return true
}

// release detaches every member that has not already been detached.
func (s *Session) release() {
	for _, w := range s.members {
		w.mu.Lock()
		if w.sess == s {
			w.sess = nil
		}
		w.mu.Unlock()
	}
}

// fail aborts the session once: members still attached are notified
// (their blocking operations return ErrPeerLost) and Wait unblocks with
// err. Members are NOT detached here — a surviving worker's engine is
// still unwinding and its final RankResult is yet to arrive; returning
// it to the idle pool now would let a new session lease the connection
// and misattribute that stale frame. Each member goes idle only when
// its RESULT arrives (frameResult handler) or its connection drops.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.err = err
	members := append([]*hubConn(nil), s.members...)
	s.mu.Unlock()
	for _, w := range members {
		w.mu.Lock()
		active := w.sess == s
		w.mu.Unlock()
		if active {
			w.write(frame{typ: frameError, src: hubRank,
				payload: errorPayload(codePeerLost, err.Error())})
		}
	}
	close(s.done)
}

// Cancel asks every rank to stop at its next iteration boundary (the
// engines' collective cancellation). The session then completes
// normally with Cancelled outcomes. Only members still attached to
// THIS session are signalled — a rank that already shipped its result
// may have been leased into a new session, which must not inherit the
// cancel.
func (s *Session) Cancel() {
	s.mu.Lock()
	members := append([]*hubConn(nil), s.members...)
	finished := s.finished
	s.mu.Unlock()
	if finished {
		return
	}
	for _, w := range members {
		w.mu.Lock()
		active := w.sess == s
		w.mu.Unlock()
		if active {
			w.write(frame{typ: frameCancel, src: hubRank})
		}
	}
}

// Wait blocks until every rank's result arrived, a member was lost, or
// ctx fires (which aborts the session). On success the results are in
// rank order; a rank that reported a failure turns into an error here.
func (s *Session) Wait(ctx context.Context) ([]*RankResult, error) {
	select {
	case <-s.done:
	case <-ctx.Done():
		s.fail(fmt.Errorf("%w: coordinator gave up: %v", ErrSessionAborted, ctx.Err()))
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	return s.results, nil
}

// handle routes one frame from member w. Runs on w's read goroutine.
func (s *Session) handle(w *hubConn, fr frame) {
	s.mu.Lock()
	finished := s.finished
	s.mu.Unlock()
	if finished && fr.typ != frameResult {
		return // drain: the worker has not yet observed the abort
	}
	switch fr.typ {
	case frameData:
		dst := int(fr.dst)
		if dst < 0 || dst >= s.size {
			s.fail(fmt.Errorf("%w: rank %d sent to invalid rank %d", ErrFrameCorrupt, fr.src, dst))
			return
		}
		s.hub.bytesRouted.Add(int64(len(fr.payload)))
		s.hub.msgsRouted.Add(1)
		if err := s.members[dst].write(fr); err != nil {
			s.hub.drop(s.members[dst], err)
		}
	case frameBarrier:
		s.mu.Lock()
		s.barrierCnt++
		release := s.barrierCnt == s.size
		if release {
			s.barrierCnt = 0
		}
		s.mu.Unlock()
		if release {
			s.broadcast(frame{typ: frameBarrierOK, src: hubRank})
		}
	case frameReduce:
		if len(fr.payload) < 8 {
			s.fail(fmt.Errorf("%w: short reduce payload from rank %d", ErrFrameCorrupt, fr.src))
			return
		}
		rank := int(fr.src)
		s.mu.Lock()
		if rank < 0 || rank >= s.size || s.reduceSeen[rank] {
			s.mu.Unlock()
			s.fail(fmt.Errorf("%w: duplicate reduce from rank %d", ErrFrameCorrupt, rank))
			return
		}
		s.reduceSeen[rank] = true
		s.reduceVals[rank] = wire.Float64(fr.payload)
		s.reduceCnt++
		complete := s.reduceCnt == s.size
		var sum float64
		if complete {
			// Rank order, exactly like simmpi.AllreduceSum — bit-for-bit
			// deterministic.
			for _, v := range s.reduceVals {
				sum += v
			}
			s.reduceCnt = 0
			for i := range s.reduceSeen {
				s.reduceSeen[i] = false
				s.reduceVals[i] = 0
			}
		}
		s.mu.Unlock()
		if complete {
			s.broadcast(frame{typ: frameReduceOK, src: hubRank, payload: wire.AppendFloat64(nil, sum)})
		}
	case frameSnapshot:
		if len(fr.payload) < 8 {
			s.fail(fmt.Errorf("%w: short snapshot from rank %d", ErrFrameCorrupt, fr.src))
			return
		}
		var cbErr error
		if s.cb.OnSnapshot != nil {
			// The payload aliases the connection's read scratch; the
			// callback gets its own copy so it may outlive this frame.
			obj := append([]byte(nil), fr.payload[8:]...)
			cbErr = s.cb.OnSnapshot(int(wire.Int64(fr.payload)), obj)
		}
		ack := []byte{0}
		if cbErr != nil {
			ack = append([]byte{1}, cbErr.Error()...)
		}
		if err := w.write(frame{typ: frameSnapshotOK, src: hubRank, payload: ack}); err != nil {
			s.hub.drop(w, err)
		}
	case frameIter:
		switch {
		case len(fr.payload) >= 24:
			// Extended stats payload: any rank's per-iteration
			// compute/comm split.
			if s.cb.OnRankTiming != nil {
				s.cb.OnRankTiming(int(fr.src), int(wire.Int64(fr.payload)),
					wire.Int64(fr.payload[8:]), wire.Int64(fr.payload[16:]))
			}
		case len(fr.payload) >= 16:
			// Progress payload: rank 0's iteration index and cost.
			if s.cb.OnIteration != nil {
				s.cb.OnIteration(int(wire.Int64(fr.payload)), wire.Float64(fr.payload[8:]))
			}
		}
	case frameResult:
		res, err := decodeResult(fr.payload)
		if err != nil {
			s.fail(err)
			return
		}
		// The worker is done with this session either way: return it to
		// the idle pool before deciding the session's fate.
		w.mu.Lock()
		first := !w.done && w.sess == s
		w.done = true
		w.sess = nil
		w.mu.Unlock()
		if !first {
			return
		}
		if res.Err != "" {
			s.fail(fmt.Errorf("transport: rank %d failed: %s", res.Rank, res.Err))
			return
		}
		s.mu.Lock()
		if s.finished {
			s.mu.Unlock()
			return
		}
		rank := int(fr.src)
		if rank < 0 || rank >= s.size || s.results[rank] != nil {
			s.mu.Unlock()
			s.fail(fmt.Errorf("%w: duplicate result from rank %d", ErrFrameCorrupt, rank))
			return
		}
		s.results[rank] = res
		s.resultCnt++
		complete := s.resultCnt == s.size
		if complete {
			s.finished = true
		}
		s.mu.Unlock()
		if complete {
			close(s.done)
		}
	default:
		s.fail(fmt.Errorf("%w: unexpected frame 0x%02x from rank %d", ErrFrameCorrupt, fr.typ, fr.src))
	}
}

// broadcast writes a frame to every member; write failures drop the
// member (which fails the session).
func (s *Session) broadcast(f frame) {
	s.mu.Lock()
	members := append([]*hubConn(nil), s.members...)
	s.mu.Unlock()
	for _, w := range members {
		if err := w.write(f); err != nil {
			s.hub.drop(w, err)
			return
		}
	}
}
