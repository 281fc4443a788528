package simmpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

const testTimeout = 5 * time.Second

func TestPingPong(t *testing.T) {
	err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []complex128{1 + 2i, 3})
			data, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != 42 {
				return fmt.Errorf("rank 0 got %v", data)
			}
		} else {
			data, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if len(data) != 2 || data[0] != 1+2i {
				return fmt.Errorf("rank 1 got %v", data)
			}
			c.Send(0, 8, []complex128{42})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []complex128{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // mutate after send; receiver must see original
			c.Send(1, 1, buf)
		} else {
			first, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if first[0] != 1 {
				return fmt.Errorf("send did not copy: %v", first[0])
			}
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// A receiver asking for tag 2 first must get the tag-2 message even
	// though tag 1 arrived first.
	err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []complex128{1})
			c.Send(1, 2, []complex128{2})
		} else {
			d2, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			d1, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if d2[0] != 2 || d1[0] != 1 {
				return fmt.Errorf("tag matching broken: %v %v", d1, d2)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSenderAndTag(t *testing.T) {
	err := Run(2, testTimeout, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, []complex128{complex(float64(i), 0)})
			}
		} else {
			for i := 0; i < n; i++ {
				d, err := c.Recv(0, 0)
				if err != nil {
					return err
				}
				if real(d[0]) != float64(i) {
					return fmt.Errorf("out of order: got %v want %d", d[0], i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySource(t *testing.T) {
	err := Run(4, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				d, err := c.Recv(AnySource, 5)
				if err != nil {
					return err
				}
				seen[int(real(d[0]))] = true
			}
			if len(seen) != 3 {
				return fmt.Errorf("expected 3 distinct sources, got %v", seen)
			}
		} else {
			c.Send(0, 5, []complex128{complex(float64(c.Rank()), 0)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreeList pins the recycling scheme both transports share: the
// smallest buffer that fits is taken, a miss allocates, the list never
// holds more than FreeListMax buffers, and buffers without capacity are
// ignored.
func TestFreeList(t *testing.T) {
	var l FreeList
	l.Put(nil)
	l.Put([]complex128{})
	if l.Len() != 0 {
		t.Fatalf("list holds %d buffers without capacity", l.Len())
	}
	small, big := make([]complex128, 4), make([]complex128, 64)
	l.Put(big)
	l.Put(small)
	if got := l.Take(3); len(got) != 3 || &got[0] != &small[0] {
		t.Fatal("Take(3) did not reuse the smallest buffer that fits")
	}
	if got := l.Take(5); len(got) != 5 || &got[0] != &big[0] {
		t.Fatal("Take(5) did not reuse the only buffer that fits")
	}
	if got := l.Take(5); len(got) != 5 || l.Len() != 0 {
		t.Fatalf("Take on an empty list: %d values, %d held", len(got), l.Len())
	}
	for i := 1; i <= 3*FreeListMax; i++ {
		l.Put(make([]complex128, i))
	}
	if l.Len() != FreeListMax {
		t.Fatalf("list holds %d buffers, bound %d", l.Len(), FreeListMax)
	}
	l.Drop()
	if l.Len() != 0 {
		t.Fatalf("%d buffers survived Drop", l.Len())
	}
}

// TestCommFreeListBounded: however many buffers a rank releases, its
// list stays within the bound.
func TestCommFreeListBounded(t *testing.T) {
	err := Run(1, testTimeout, func(c *Comm) error {
		for i := 0; i < 4*FreeListMax; i++ {
			c.Release(make([]complex128, 8))
		}
		if got := c.world.boxes[0].free.Len(); got != FreeListMax {
			return fmt.Errorf("rank holds %d released buffers, bound %d", got, FreeListMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricSendRecv(t *testing.T) {
	err := Run(2, testTimeout, func(c *Comm) error {
		other := 1 - c.Rank()
		// Symmetric exchange — would deadlock with synchronous sends,
		// must succeed with eager ones (the APPP communication pattern).
		c.Send(other, 3, []complex128{complex(float64(c.Rank()), 0)})
		d, err := c.Recv(other, 3)
		if err != nil {
			return err
		}
		if real(d[0]) != float64(other) {
			return fmt.Errorf("got %v want %d", d[0], other)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutDetectsDeadlock(t *testing.T) {
	start := time.Now()
	err := Run(2, 100*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Recv(1, 9) // never sent
			return err
		}
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var before, after atomic.Int32
	err := Run(8, testTimeout, func(c *Comm) error {
		before.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier, every rank must have incremented.
		if before.Load() != 8 {
			return fmt.Errorf("rank %d passed barrier with before=%d", c.Rank(), before.Load())
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Load() != 8 {
		t.Fatal("not all ranks completed")
	}
}

func TestBarrierReusable(t *testing.T) {
	err := Run(4, testTimeout, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			if err := c.Barrier(); err != nil {
				return fmt.Errorf("iteration %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	err := Run(6, testTimeout, func(c *Comm) error {
		for iter := 0; iter < 10; iter++ {
			x := float64(c.Rank() + 1 + iter)
			sum, err := c.AllreduceSum(x)
			if err != nil {
				return err
			}
			want := float64(21 + 6*iter) // sum(1..6) + 6*iter
			if sum != want {
				return fmt.Errorf("iter %d rank %d: sum=%g want %g", iter, c.Rank(), sum, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestByteAndMessageCounters(t *testing.T) {
	w := NewWorld(2, testTimeout)
	err := w.RunAll(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]complex128, 10)) // 160 bytes
			c.Send(1, 1, make([]complex128, 5))  // 80 bytes
		} else {
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.BytesSent(); got != 240 {
		t.Fatalf("BytesSent = %d, want 240", got)
	}
	if got := w.MessagesSent(); got != 2 {
		t.Fatalf("MessagesSent = %d, want 2", got)
	}
	if got := w.BytesReceivedBy(1); got != 240 {
		t.Fatalf("BytesReceivedBy(1) = %d, want 240", got)
	}
	if got := w.BytesReceivedBy(0); got != 0 {
		t.Fatalf("BytesReceivedBy(0) = %d, want 0", got)
	}
}

func TestRankPanicBecomesError(t *testing.T) {
	err := Run(3, testTimeout, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "rank 2 panicked") {
		t.Fatalf("got %v", err)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	err := Run(1, testTimeout, func(c *Comm) error {
		c.Send(5, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("send to invalid rank must error via panic capture")
	}
}

func TestRingAllToAll(t *testing.T) {
	// Classic ring: each rank sends to (rank+1)%n and receives from
	// (rank-1+n)%n, n times, accumulating all values.
	const n = 8
	err := Run(n, testTimeout, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		val := complex(float64(c.Rank()), 0)
		var acc complex128
		cur := val
		for step := 0; step < n; step++ {
			acc += cur
			c.Send(next, step, []complex128{cur})
			d, err := c.Recv(prev, step)
			if err != nil {
				return err
			}
			cur = d[0]
			c.Release(d)
		}
		if real(acc) != float64(n*(n-1)/2) {
			return fmt.Errorf("rank %d acc=%v", c.Rank(), acc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

func TestNewWorldInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	NewWorld(0, testTimeout)
}
