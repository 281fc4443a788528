package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ptychopath/internal/simmpi"
)

// runSession opens one session over the connected clients, runs fn on
// every rank concurrently and closes the session with each rank's
// RESULT.
func runSession(t *testing.T, h *Hub, clients []*Client, fn func(c *Client) error) {
	t.Helper()
	sess, err := h.StartSession(testSetups(len(clients)), SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, errs[i] = c.WaitSetup(context.Background(), nil); errs[i] != nil {
				return
			}
			if errs[i] = fn(c); errs[i] != nil {
				return
			}
			errs[i] = c.SendResult(&RankResult{Rank: c.Rank()})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if _, err := sess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// loopbackPair connects two workers to a fresh hub.
func loopbackPair(t *testing.T) (*Hub, []*Client) {
	t.Helper()
	h := startHub(t)
	clients := []*Client{dialWorker(t, h, "w0"), dialWorker(t, h, "w1")}
	waitWorkers(t, h, len(clients))
	return h, clients
}

// payloadContract is simmpi.Transport's payload-ownership contract as a
// two-rank program; both implementations must run it clean. The ranks
// take turns — one message in flight at a time, each released before
// the next is sent — so which buffer a message lands in is determined.
func payloadContract(c simmpi.Transport) error {
	const n, tag = 64, 5
	me, peer := c.Rank(), 1-c.Rank()
	all := func(buf []complex128, v float64) bool {
		for _, x := range buf {
			if x != complex(v, -v) {
				return false
			}
		}
		return true
	}
	// turn: rank from sends size copies of v and then scribbles over its
	// source; the other rank receives and checks them.
	turn := func(from int, v float64, size int) ([]complex128, error) {
		if me == from {
			src := make([]complex128, size)
			for i := range src {
				src[i] = complex(v, -v)
			}
			c.Send(peer, tag, src)
			for i := range src {
				src[i] = -1 // Send copied: the receiver must never see this
			}
			return nil, nil
		}
		got, err := c.Recv(peer, tag)
		if err != nil {
			return nil, err
		}
		if len(got) != size || !all(got, v) {
			return nil, fmt.Errorf("rank %d: payload of %d values is not %d x %g", me, len(got), size, v)
		}
		return got, nil
	}

	// One payload per rank is kept and never released.
	var kept []complex128
	for from := 0; from < 2; from++ {
		got, err := turn(from, 1, n)
		if err != nil {
			return err
		}
		if got != nil {
			kept = got
		}
	}
	// Released payloads: the buffer of the first is reused by every later
	// message that fits it, a larger message gets another, and none of
	// them is the kept one.
	var first []complex128
	for i, size := range []int{n, n, n / 2, 1, 2 * n} {
		for from := 0; from < 2; from++ {
			got, err := turn(from, float64(10+i), size)
			if err != nil {
				return err
			}
			if got == nil {
				continue
			}
			switch reused := i > 0 && &got[0] == &first[0]; {
			case i == 0:
				first = got
			case size <= cap(first) && !reused:
				return fmt.Errorf("rank %d: message %d (%d values) did not reuse the released buffer of %d", me, i, size, cap(first))
			case size > cap(first) && reused:
				return fmt.Errorf("rank %d: %d values arrived in a buffer of %d", me, size, cap(first))
			}
			if &got[0] == &kept[0] {
				return fmt.Errorf("rank %d: message %d arrived in a payload that was never released", me, i)
			}
			c.Release(got)
		}
	}
	// Harmless releases: nothing, no capacity, and buffers the transport
	// never handed out — the first large enough that the next message is
	// built in it, then more than the free list may hold.
	c.Release(nil)
	c.Release([]complex128{})
	c.Release(make([]complex128, 4*n))
	for i := 0; i < 4*simmpi.FreeListMax; i++ {
		c.Release(make([]complex128, 8))
	}
	for from := 0; from < 2; from++ {
		got, err := turn(from, 20, 3*n)
		if err != nil {
			return err
		}
		c.Release(got)
	}
	if !all(kept, 1) {
		return fmt.Errorf("rank %d: an unreleased payload was overwritten by later traffic", me)
	}
	return c.Barrier()
}

// TestPayloadContract runs the ownership contract over both transports:
// goroutines sharing mailboxes, and worker connections through a
// loopback hub. Over TCP it also pins the free list's bound and that a
// new session starts with an empty list.
func TestPayloadContract(t *testing.T) {
	t.Run("simmpi", func(t *testing.T) {
		err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error { return payloadContract(c) })
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("transport", func(t *testing.T) {
		h, clients := loopbackPair(t)
		runSession(t, h, clients, func(c *Client) error { return payloadContract(c) })
		for i, c := range clients {
			if got := c.free.Len(); got == 0 || got > simmpi.FreeListMax {
				t.Fatalf("rank %d holds %d released buffers after the session, want 1..%d", i, got, simmpi.FreeListMax)
			}
		}
		runSession(t, h, clients, func(c *Client) error {
			if got := c.free.Len(); got != 0 {
				return fmt.Errorf("rank %d: %d buffers of the last session survived the SETUP", c.Rank(), got)
			}
			return nil
		})
	})
}

// TestPingPongAllocs is the allocation guard of the TCP message path: a
// warmed two-rank ping-pong of a 4,096-element payload (64 KiB each
// way) through the loopback hub, released after every receive, costs at
// most 1 KB per round trip — the deadline timers of the two blocking
// receives, counted over both clients and the hub since they share this
// process. Before payloads were recycled a round trip allocated the
// payload three times each way (pack, frame, decode): 192 KB and up.
func TestPingPongAllocs(t *testing.T) {
	h, clients := loopbackPair(t)
	const warm, rounds = 8, 64
	payload := make([]complex128, 4096)
	var perRound uint64
	runSession(t, h, clients, func(c *Client) error {
		pingPong := func(n int) error {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, 1, payload)
				}
				got, err := c.Recv(1-c.Rank(), 1)
				if err != nil {
					return err
				}
				c.Release(got)
				if c.Rank() == 1 {
					c.Send(0, 1, payload)
				}
			}
			return c.Barrier()
		}
		if err := pingPong(warm); err != nil {
			return err
		}
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := pingPong(rounds); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perRound = (after.TotalAlloc - before.TotalAlloc) / rounds
		}
		return nil
	})
	if perRound > 1024 {
		t.Errorf("warmed ping-pong allocates %d B per round trip, budget 1024", perRound)
	}
	t.Logf("%d B per round trip", perRound)
}
