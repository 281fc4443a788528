package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// conformanceSetup and conformanceResult are the fixed v4 payloads the
// codec tests and the fuzz corpus share.
func conformanceSetup() *Setup {
	return &Setup{
		JobID: "job-0042", Rank: 2, Size: 4, Algorithm: "gd", TimeoutMS: 30_000, Trace: "req-7f",
		Spec: []byte(`{"algorithm":"gd","iterations":8,"step_size":0.01,"mesh_rows":2,"mesh_cols":2,"start_iter":3}`),
		Init: []byte("OBJCKv1\x00 stands in for a tile"),
	}
}

func conformanceResult() *RankResult {
	return &RankResult{
		Rank: 3, Cancelled: true, CostHistory: []float64{9.5, 7.25, 6.125},
		Locations: 12, Owned: 9, MemBytes: 1 << 20, ComputeNS: 5e6, CommNS: 2e6,
		SentBytes: 4096, SentMessages: 16, Tile: []byte("OBJCKv1\x00 stands in for a tile"),
	}
}

// TestSetupResultCodec: the two hand-framed payloads round-trip, and
// anything but the exact bytes — every truncation, a trailing byte, a
// length field claiming more than the payload holds — is ErrFrameCorrupt,
// decided from the lengths before anything is allocated.
func TestSetupResultCodec(t *testing.T) {
	setup := conformanceSetup()
	plain := appendSetup(nil, setup)
	got, hasShard, err := decodeSetup(plain)
	if err != nil || hasShard || !reflect.DeepEqual(got, setup) {
		t.Fatalf("setup round trip: %+v, shard %v, err %v", got, hasShard, err)
	}
	setup.Shard = bytes.NewReader(nil)
	flagged := appendSetup(nil, setup)
	if _, hasShard, err := decodeSetup(flagged); err != nil || !hasShard {
		t.Fatalf("setup with a shard: flag %v, err %v", hasShard, err)
	}
	if len(flagged) != len(plain) {
		t.Fatal("the shard itself must not travel in the SETUP header")
	}

	res := conformanceResult()
	encoded := appendResult(nil, res)
	back, err := decodeResult(encoded)
	if err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("result round trip: %+v, err %v", back, err)
	}
	if back, err := decodeResult(appendResult(nil, &RankResult{Rank: 1, Err: "boom"})); err != nil || back.Err != "boom" || back.Tile != nil {
		t.Fatalf("failed-rank result: %+v, err %v", back, err)
	}

	decoders := map[string]struct {
		payload []byte
		decode  func([]byte) error
		lenOffs []int // offsets of uint32 length fields
	}{
		"setup": {plain, func(b []byte) error { _, _, err := decodeSetup(b); return err },
			[]int{17, 17 + 4 + len(setup.JobID)}},
		"result": {encoded, func(b []byte) error { _, err := decodeResult(b); return err },
			[]int{4 + 1 + 7*8, 4 + 1 + 7*8 + 4 + len(res.Err)}},
	}
	for name, d := range decoders {
		for n := 0; n < len(d.payload); n++ {
			if err := d.decode(d.payload[:n]); !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("%s truncated to %d of %d bytes: %v", name, n, len(d.payload), err)
			}
		}
		if err := d.decode(append(bytes.Clone(d.payload), 0)); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s with a trailing byte: %v", name, err)
		}
		for _, off := range d.lenOffs {
			for _, lie := range []uint32{0xFFFFFFFF, 1 << 30, uint32(len(d.payload))} {
				if err := d.decode(wiretest.PatchUint32(d.payload, off, lie)); !errors.Is(err, ErrFrameCorrupt) {
					t.Errorf("%s length at %d patched to %d: %v", name, off, lie, err)
				}
			}
		}
	}
}

// consumeShardThenFinish is a worker that consumes its shard, reports how
// many bytes and their checksum in CostHistory, and finishes the session.
func consumeShardThenFinish(c *Client) error {
	setup, err := c.WaitSetup(context.Background(), nil)
	if err != nil {
		return err
	}
	res := &RankResult{Rank: setup.Rank}
	if setup.Shard != nil {
		got, err := io.ReadAll(setup.Shard)
		if err != nil {
			res.Err = err.Error()
		}
		res.CostHistory = []float64{float64(len(got)), float64(wire.Checksum(got))}
	}
	return c.SendResult(res)
}

// TestShardStreaming: a shard of any size reaches its rank intact in
// frames no larger than maxShardFrame, counted in BytesOut; a rank
// without one sees a nil reader; and a worker that walks away from a
// shard mid-stream still serves the next session on the same connection.
func TestShardStreaming(t *testing.T) {
	h := startHub(t)
	c0, c1 := dialWorker(t, h, "w0"), dialWorker(t, h, "w1")
	waitWorkers(t, h, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 4*testTimeout)
	defer cancel()

	big := make([]byte, 3*maxShardFrame+12345)
	rand.New(rand.NewSource(1)).Read(big)
	run := func(shard0 io.Reader, worker0 func(*Client) error) []*RankResult {
		t.Helper()
		setups := testSetups(2)
		setups[0].Shard = shard0
		errs := make(chan error, 2)
		go func() { errs <- worker0(c0) }()
		go func() { errs <- consumeShardThenFinish(c1) }()
		sess, err := h.StartSession(setups, SessionCallbacks{})
		if err != nil {
			t.Fatal(err)
		}
		results, err := sess.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		return results
	}

	before := h.Workers()[0].BytesOut
	results := run(bytes.NewReader(big), consumeShardThenFinish)
	if want := []float64{float64(len(big)), float64(wire.Checksum(big))}; !reflect.DeepEqual(results[0].CostHistory, want) {
		t.Fatalf("rank 0 read %v of its shard, want %v", results[0].CostHistory, want)
	}
	if results[1].CostHistory != nil {
		t.Fatalf("rank 1 was sent no shard but read %v", results[1].CostHistory)
	}
	if sent := h.Workers()[0].BytesOut - before; sent < int64(len(big)) || sent > int64(len(big))+1024 {
		t.Fatalf("BytesOut grew by %d for a %d-byte shard", sent, len(big))
	}

	// The worker reads one byte and gives up; the hub may still be
	// streaming when the RESULT arrives and must not carry on into the
	// next session.
	run(bytes.NewReader(big), func(c *Client) error {
		setup, err := c.WaitSetup(context.Background(), nil)
		if err != nil {
			return err
		}
		if _, err := setup.Shard.Read(make([]byte, 1)); err != nil {
			return err
		}
		return c.SendResult(&RankResult{Rank: setup.Rank})
	})
	small := []byte("a shard that fits one frame")
	results = run(bytes.NewReader(small), consumeShardThenFinish)
	if want := []float64{float64(len(small)), float64(wire.Checksum(small))}; !reflect.DeepEqual(results[0].CostHistory, want) {
		t.Fatalf("after an abandoned shard, rank 0 read %v, want %v", results[0].CostHistory, want)
	}

	// A source that fails mid-shard fails the session; the rank sees a
	// broken stream, not a short one.
	setups := testSetups(2)
	setups[0].Shard = io.MultiReader(bytes.NewReader(small), iotest.ErrReader(errors.New("disk on fire")))
	errs := make(chan error, 2)
	go func() { errs <- consumeShardThenFinish(c0) }()
	go func() { errs <- consumeShardThenFinish(c1) }()
	sess, err := h.StartSession(setups, SessionCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(ctx); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("session with a failing shard source: %v", err)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// zeros is an endless source of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestStalledWorkerFailsSession: a leased worker that completed the
// handshake and then stopped reading (SIGSTOP, a full receive window)
// used to block StartSession forever with every member's write lock
// held. SETUP and SHARD writes now carry the session's deadline: the
// stalled worker is dropped, the session fails with ErrPeerLost within
// the timeout, and the healthy worker is leasable again.
func TestStalledWorkerFailsSession(t *testing.T) {
	const payload = 64 << 20 // far beyond loopback socket buffers
	stall := func(t *testing.T, h *Hub) {
		t.Helper()
		conn, err := net.Dial("tcp", h.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		hello := append(wire.AppendUint32(nil, ProtoVersion), "stalled"...)
		if err := writeFrame(conn, frame{typ: frameHello, dst: hubRank, payload: hello}); err != nil {
			t.Fatal(err)
		}
		if fr, err := readFrame(conn); err != nil || fr.typ != frameWelcome {
			t.Fatalf("handshake: frame %+v, err %v", fr, err)
		}
		// ... and never reads again.
	}
	for name, tc := range map[string]struct {
		stalledRank int
		setup       func(*Setup)
	}{
		// The stall hits the SETUP header, written under every member's
		// lock; rank 1 never hears of the session.
		"header": {0, func(s *Setup) { s.Init = make([]byte, payload) }},
		// The stall hits the shard that follows; rank 0 is mid-session.
		"shard": {1, func(s *Setup) { s.Shard = io.LimitReader(zeros{}, payload) }},
	} {
		t.Run(name, func(t *testing.T) {
			h := startHub(t)
			var healthy *Client
			for rank := range 2 {
				if rank == tc.stalledRank {
					stall(t, h)
				} else {
					healthy = dialWorker(t, h, "healthy")
				}
				waitWorkers(t, h, rank+1) // ids, and so ranks, in dial order
			}
			served := make(chan error, 1)
			go func() {
				// Serve whatever comes: a session that dies under it, then
				// the one proving the connection is still good.
				for {
					setup, err := healthy.WaitSetup(context.Background(), nil)
					if err != nil {
						served <- err
						return
					}
					res := &RankResult{Rank: setup.Rank}
					if setup.Size > 1 {
						if _, err := healthy.AllreduceSum(1); err != nil {
							res.Err = err.Error()
						}
					}
					if err := healthy.SendResult(res); err != nil || setup.Size == 1 {
						served <- err
						return
					}
				}
			}()

			// Only the stalled rank gets the short timeout: the healthy
			// one must still be waiting in its allreduce when the hub's
			// write deadline gives the verdict, not time out beside it.
			setups := testSetups(2)
			setups[tc.stalledRank].TimeoutMS = 300
			tc.setup(setups[tc.stalledRank])
			start := time.Now()
			sess, err := h.StartSession(setups, SessionCallbacks{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			if _, err := sess.Wait(ctx); !errors.Is(err, ErrPeerLost) {
				t.Fatalf("session with a stalled worker: %v, want ErrPeerLost", err)
			}
			if took := time.Since(start); took > testTimeout/2 {
				t.Fatalf("failing the session took %v against a 300ms write deadline", took)
			}
			deadline := time.Now().Add(testTimeout)
			for h.IdleWorkers() != 1 || len(h.Workers()) != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("workers after the stall: %+v, want the healthy one, idle", h.Workers())
				}
				time.Sleep(time.Millisecond)
			}
			again, err := h.StartSession(testSetups(1), SessionCallbacks{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := again.Wait(ctx); err != nil {
				t.Fatalf("session on the surviving worker: %v", err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}
