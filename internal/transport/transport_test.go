package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ptychopath/internal/simmpi"
	"ptychopath/internal/wire"
)

const testTimeout = 5 * time.Second

func startHub(t *testing.T) *Hub {
	t.Helper()
	h, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func dialWorker(t *testing.T, h *Hub, name string) *Client {
	t.Helper()
	c, err := Dial(h.Addr().String(), DialOptions{Name: name, Timeout: testTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitWorkers(t *testing.T, h *Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) {
		if len(h.Workers()) == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("hub registered %d workers, want %d", len(h.Workers()), n)
}

func testSetups(n int) []*Setup {
	out := make([]*Setup, n)
	for i := range out {
		out[i] = &Setup{JobID: "test", Algorithm: "test"}
	}
	return out
}

// TestFrameRoundTrip checks the encoder against the decoder, and that
// a flipped payload byte is caught by the CRC.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{typ: frameData, src: 2, dst: 3, tag: 7, payload: []byte("hello frames")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	out, err := readFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.src != in.src || out.dst != in.dst ||
		out.tag != in.tag || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}

	raw[25] ^= 0x40 // corrupt one payload byte
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupted frame: got %v, want ErrFrameCorrupt", err)
	}

	if _, err := readFrame(bytes.NewReader(raw[:10])); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("truncated header: got %v, want ErrFrameCorrupt", err)
	}
	full := buf.Bytes()
	if _, err := readFrame(bytes.NewReader(full[:len(full)-3])); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("truncated payload: got %v, want ErrFrameCorrupt", err)
	}
}

// TestHandshakeVersionMismatch: a worker announcing the wrong protocol
// version is refused with a typed error — on both sides of the wire.
func TestHandshakeVersionMismatch(t *testing.T) {
	h := startHub(t)

	// Hub side: a raw client sending version 99 receives a frameError
	// that decodes to ErrVersionMismatch.
	conn, err := net.Dial("tcp", h.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := append(wire.AppendUint32(nil, 99), "old-worker"...)
	if err := writeFrame(conn, frame{typ: frameHello, dst: hubRank, payload: hello}); err != nil {
		t.Fatal(err)
	}
	fr, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.typ != frameError {
		t.Fatalf("frame type 0x%02x, want frameError", fr.typ)
	}
	if err := decodeError(fr.payload); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("decoded %v, want ErrVersionMismatch", err)
	}
	if len(h.Workers()) != 0 {
		t.Fatalf("mismatched worker was registered")
	}

	// Client side: a hub answering with a different version fails Dial
	// with the typed error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		readFrame(c) // hello
		writeFrame(c, frame{typ: frameWelcome, src: hubRank,
			payload: wire.AppendUint32(wire.AppendUint32(nil, 99), 1)})
	}()
	if _, err := Dial(ln.Addr().String(), DialOptions{Timeout: testTimeout}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("dial against v99 hub: got %v, want ErrVersionMismatch", err)
	}
}

// TestTruncatedFrameSurfacesTypedError: a stream cut mid-frame turns
// into ErrFrameCorrupt on the next blocking call instead of a hang.
func TestTruncatedFrameSurfacesTypedError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		readFrame(c) // hello
		writeFrame(c, frame{typ: frameWelcome, src: hubRank,
			payload: wire.AppendUint32(wire.AppendUint32(nil, ProtoVersion), 1)})
		// A frame header promising a payload that never arrives.
		c.Write([]byte{'P', 'T', 'G', 'W', frameData, 0, 0, 0, 0})
		c.Close()
	}()
	c, err := Dial(ln.Addr().String(), DialOptions{Timeout: testTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(0, 1); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("recv after truncated frame: got %v, want ErrFrameCorrupt", err)
	}
}

// TestWorldSemantics runs a 4-rank session over loopback TCP and
// exercises the full Transport contract: ring point-to-point with tags,
// AnySource, barrier, and the rank-ordered allreduce.
func TestWorldSemantics(t *testing.T) {
	h := startHub(t)
	const n = 4
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dialWorker(t, h, fmt.Sprintf("w%d", i))
	}
	waitWorkers(t, h, n)

	sess, err := h.StartSession(testSetups(n), SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			errs[i] = func() error {
				setup, err := c.WaitSetup(context.Background(), nil)
				if err != nil {
					return err
				}
				rank, size := setup.Rank, setup.Size
				if rank != c.Rank() || size != c.Size() || size != n {
					return fmt.Errorf("rank/size mismatch: %d/%d", c.Rank(), c.Size())
				}
				// Ring exchange with a tag.
				c.Send((rank+1)%size, 7, []complex128{complex(float64(rank), 1)})
				data, err := c.Recv((rank+size-1)%size, 7)
				if err != nil {
					return err
				}
				want := complex(float64((rank+size-1)%size), 1)
				if len(data) != 1 || data[0] != want {
					return fmt.Errorf("ring payload %v, want %v", data, want)
				}
				// AnySource receive of a message to self.
				c.Send(rank, 9, []complex128{complex(0, float64(rank))})
				if data, err = c.Recv(simmpi.AnySource, 9); err != nil {
					return err
				}
				if len(data) != 1 || data[0] != complex(0, float64(rank)) {
					return fmt.Errorf("anysource payload %v", data)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				sum, err := c.AllreduceSum(float64(rank + 1))
				if err != nil {
					return err
				}
				if sum != 10 { // 1+2+3+4
					return fmt.Errorf("allreduce sum %g, want 10", sum)
				}
				if c.SentBytes() == 0 || c.SentMessages() == 0 {
					return fmt.Errorf("sent counters not advancing")
				}
				return c.SendResult(&RankResult{Rank: rank, CostHistory: []float64{sum}})
			}()
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	results, err := sess.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for rank, r := range results {
		if r.Rank != rank || len(r.CostHistory) != 1 || r.CostHistory[0] != 10 {
			t.Fatalf("result %d: %+v", rank, r)
		}
	}
	if h.BytesRouted() == 0 || h.MessagesRouted() == 0 {
		t.Fatal("hub routed nothing")
	}
}

// TestSessionReuse: the same worker connections serve two sessions in a
// row — per-peer connection reuse, no re-dial between jobs.
func TestSessionReuse(t *testing.T) {
	h := startHub(t)
	const n = 2
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dialWorker(t, h, fmt.Sprintf("w%d", i))
	}
	waitWorkers(t, h, n)

	for round := 0; round < 2; round++ {
		sess, err := h.StartSession(testSetups(n), SessionCallbacks{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				errs[i] = func() error {
					setup, err := c.WaitSetup(context.Background(), nil)
					if err != nil {
						return err
					}
					sum, err := c.AllreduceSum(float64(setup.Rank))
					if err != nil {
						return err
					}
					if sum != 1 {
						return fmt.Errorf("sum %g, want 1", sum)
					}
					return c.SendResult(&RankResult{Rank: setup.Rank})
				}()
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d rank %d: %v", round, i, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		if _, err := sess.Wait(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cancel()
	}
	if got := h.SessionsStarted(); got != 2 {
		t.Fatalf("sessions started %d, want 2", got)
	}
	if len(h.Workers()) != n {
		t.Fatalf("workers dropped between sessions: %v", h.Workers())
	}
}

// TestPeerDropMidAllreduce: one rank's process dies while the other is
// blocked in an allreduce; the survivor gets ErrPeerLost (not a hang,
// not a timeout), and the session fails the same way.
func TestPeerDropMidAllreduce(t *testing.T) {
	h := startHub(t)
	c0 := dialWorker(t, h, "survivor")
	c1 := dialWorker(t, h, "casualty")
	waitWorkers(t, h, 2)

	sess, err := h.StartSession(testSetups(2), SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	var survivorErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c0.WaitSetup(context.Background(), nil); err != nil {
			survivorErr = err
			return
		}
		// Blocks: the peer never contributes.
		_, survivorErr = c0.AllreduceSum(1)
	}()
	if _, err := c1.WaitSetup(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	c1.Close() // the disconnect, mid-collective

	wg.Wait()
	if !errors.Is(survivorErr, ErrPeerLost) {
		t.Fatalf("survivor got %v, want ErrPeerLost", survivorErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if _, err := sess.Wait(ctx); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("session wait got %v, want ErrPeerLost", err)
	}
}

// TestFailedSessionHoldsLeaseUntilResult: when a session aborts, a
// surviving worker must NOT return to the idle pool until its final
// RankResult arrives — otherwise a new session could be leased onto
// the connection and poisoned by the old session's stale frames.
func TestFailedSessionHoldsLeaseUntilResult(t *testing.T) {
	h := startHub(t)
	c0 := dialWorker(t, h, "survivor")
	c1 := dialWorker(t, h, "casualty")
	waitWorkers(t, h, 2)

	sess, err := h.StartSession(testSetups(2), SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	setup0, err := c0.WaitSetup(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.WaitSetup(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if _, err := sess.Wait(ctx); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("session wait got %v, want ErrPeerLost", err)
	}
	// The survivor has not reported in: it must still be leased (busy),
	// so a new 1-rank session cannot grab its connection.
	if got := h.IdleWorkers(); got != 0 {
		t.Fatalf("idle workers %d right after abort, want 0 (survivor still mid-engine)", got)
	}
	if _, err := h.StartSession(testSetups(1), SessionCallbacks{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("leasing a mid-abort worker: got %v, want ErrNoWorkers", err)
	}
	// Once the survivor ships its (failed) result it returns to the pool.
	if err := c0.SendResult(&RankResult{Rank: setup0.Rank, Err: "peer lost"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) && h.IdleWorkers() != 1 {
		time.Sleep(time.Millisecond)
	}
	if got := h.IdleWorkers(); got != 1 {
		t.Fatalf("idle workers %d after survivor's result, want 1", got)
	}
	if _, err := h.StartSession(testSetups(1), SessionCallbacks{}); err != nil {
		t.Fatalf("worker not leasable after returning to pool: %v", err)
	}
}

// TestRecvDeadline: a receive nobody will ever satisfy fails with the
// engine-visible simmpi.ErrTimeout instead of hanging — the deadlock
// detector of the TCP world.
func TestRecvDeadline(t *testing.T) {
	h := startHub(t)
	c0 := dialWorker(t, h, "w0")
	c1 := dialWorker(t, h, "w1")
	waitWorkers(t, h, 2)
	if _, err := h.StartSession(testSetups(2), SessionCallbacks{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c0, c1} {
		if _, err := c.WaitSetup(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	c0.timeout = 100 * time.Millisecond
	start := time.Now()
	if _, err := c0.Recv(1, 42); !errors.Is(err, simmpi.ErrTimeout) {
		t.Fatalf("got %v, want simmpi.ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > testTimeout {
		t.Fatalf("deadline took %v", elapsed)
	}
}

// TestNoWorkers: a session larger than the idle pool is refused with
// the typed error.
func TestNoWorkers(t *testing.T) {
	h := startHub(t)
	dialWorker(t, h, "only")
	waitWorkers(t, h, 1)
	if _, err := h.StartSession(testSetups(3), SessionCallbacks{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
	// The lone idle worker must not stay leased after the refusal.
	if h.IdleWorkers() != 1 {
		t.Fatalf("idle workers %d after refused session, want 1", h.IdleWorkers())
	}
}
