// Package des is a conservative discrete-event simulator for
// message-passing programs. Each simulated rank runs as a goroutine that
// the scheduler resumes one at a time in virtual-time order, so programs
// are written in ordinary sequential style (Compute / Send / Recv /
// Barrier) while the engine tracks a global virtual clock, models
// message transfer latency through a caller-supplied cost function, and
// accounts each rank's time into compute, wait (blocked on data that has
// not been produced) and comm (blocked on data in flight).
//
// The paper-scale experiments use this engine to replay the Gradient
// Decomposition and Halo Voxel Exchange schedules on a simulated Summit
// (4158 GPUs) that obviously cannot be reproduced physically (see
// ARCHITECTURE.md's package map).
package des

import (
	"errors"
	"fmt"
	"sort"
)

// Stats aggregates one rank's virtual time by category.
type Stats struct {
	Compute float64 // time spent in Compute calls
	Wait    float64 // blocked waiting for a message not yet sent / barrier
	Comm    float64 // blocked on in-flight transfer, plus explicit comm charges
}

// Total returns the sum of all categories.
func (s Stats) Total() float64 { return s.Compute + s.Wait + s.Comm }

// TransferFunc returns the in-flight duration of a message of the given
// size between two ranks (latency + bytes/bandwidth in a typical model).
type TransferFunc func(src, dst int, bytes int64) float64

// ErrDeadlock is returned when every unfinished rank is blocked and no
// message or wakeup can release any of them.
var ErrDeadlock = errors.New("des: deadlock — all ranks blocked with no pending events")

type message struct {
	src, tag int
	sentAt   float64
	arrival  float64
	bytes    int64
}

type reqKind int

const (
	reqNone reqKind = iota
	reqCompute
	reqRecv
	reqBarrier
	reqDone
)

type request struct {
	kind reqKind
	dt   float64 // compute duration
	src  int     // recv source
	tag  int     // recv tag
	chrg int     // charge category for compute: 0 compute, 1 comm
}

type proc struct {
	id      int
	now     float64
	stats   Stats
	mailbox []message
	req     request
	resume  chan struct{}
	yield   chan request
	blocked bool
	done    bool
	err     error
}

// Env is the per-rank handle passed to the program.
type Env struct {
	p   *proc
	sim *sim
}

// Rank returns this rank's id.
func (e *Env) Rank() int { return e.p.id }

// Size returns the world size.
func (e *Env) Size() int { return len(e.sim.procs) }

// Now returns the rank's local virtual time.
func (e *Env) Now() float64 { return e.p.now }

// Stats returns a snapshot of the rank's accounting so far.
func (e *Env) Stats() Stats { return e.p.stats }

// Compute advances the rank's clock by dt seconds, accounted as compute.
func (e *Env) Compute(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("des: negative compute %g", dt))
	}
	e.p.yield <- request{kind: reqCompute, dt: dt}
	<-e.p.resume
}

// ChargeComm advances the rank's clock by dt seconds accounted as
// communication — used for modeled collectives (e.g. the all-reduce the
// paper replaces with APPP).
func (e *Env) ChargeComm(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("des: negative comm %g", dt))
	}
	e.p.yield <- request{kind: reqCompute, dt: dt, chrg: 1}
	<-e.p.resume
}

// Send transmits bytes to dst with the given tag. Non-blocking
// (asynchronous isend): the sender's clock does not advance; arrival is
// now + TransferFunc(...).
func (e *Env) Send(dst, tag int, bytes int64) {
	if dst < 0 || dst >= len(e.sim.procs) {
		panic(fmt.Sprintf("des: send to invalid rank %d", dst))
	}
	e.sim.post(e.p, dst, tag, bytes)
}

// Recv blocks until a message with matching src and tag arrives. Time
// blocked before the sender issued the send is accounted as Wait; time
// covering the in-flight transfer is accounted as Comm.
func (e *Env) Recv(src, tag int) {
	e.p.yield <- request{kind: reqRecv, src: src, tag: tag}
	<-e.p.resume
}

// Barrier blocks until every rank has entered it; blocked time is Wait.
func (e *Env) Barrier() {
	e.p.yield <- request{kind: reqBarrier}
	<-e.p.resume
}

type sim struct {
	procs    []*proc
	transfer TransferFunc
	inBar    int
}

func (s *sim) post(from *proc, dst, tag int, bytes int64) {
	dt := s.transfer(from.id, dst, bytes)
	if dt < 0 {
		panic("des: negative transfer time")
	}
	m := message{src: from.id, tag: tag, sentAt: from.now, arrival: from.now + dt, bytes: bytes}
	s.procs[dst].mailbox = append(s.procs[dst].mailbox, m)
}

// Simulate runs the program on n ranks and returns per-rank stats plus
// the makespan (largest finishing time).
func Simulate(n int, transfer TransferFunc, program func(e *Env) error) ([]Stats, float64, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("des: invalid world size %d", n)
	}
	if transfer == nil {
		transfer = func(int, int, int64) float64 { return 0 }
	}
	s := &sim{transfer: transfer, procs: make([]*proc, n)}
	for i := range s.procs {
		s.procs[i] = &proc{
			id:     i,
			resume: make(chan struct{}),
			yield:  make(chan request),
		}
	}
	// Launch rank goroutines; each blocks immediately until resumed.
	for _, p := range s.procs {
		go func(p *proc) {
			defer func() {
				if r := recover(); r != nil {
					p.err = fmt.Errorf("des: rank %d panicked: %v", p.id, r)
				}
				p.yield <- request{kind: reqDone}
			}()
			env := &Env{p: p, sim: s}
			<-p.resume
			if err := program(env); err != nil {
				p.err = err
			}
		}(p)
	}

	// runUntilBlocked resumes p and services its requests until it
	// issues one the scheduler cannot satisfy immediately.
	runnable := make([]*proc, 0, n)
	for _, p := range s.procs {
		runnable = append(runnable, p)
	}
	var barrierers []*proc

	tryRecv := func(p *proc) bool {
		// Find the earliest-arriving matching message.
		best := -1
		for i, m := range p.mailbox {
			if (p.req.src < 0 || m.src == p.req.src) && m.tag == p.req.tag {
				if best < 0 || m.arrival < p.mailbox[best].arrival {
					best = i
				}
			}
		}
		if best < 0 {
			return false
		}
		m := p.mailbox[best]
		p.mailbox = append(p.mailbox[:best], p.mailbox[best+1:]...)
		// Accounting: wait until the send was issued, comm for the
		// transfer remainder.
		if m.sentAt > p.now {
			p.stats.Wait += m.sentAt - p.now
			p.now = m.sentAt
		}
		if m.arrival > p.now {
			p.stats.Comm += m.arrival - p.now
			p.now = m.arrival
		}
		return true
	}

	// drive services p's requests until it blocks or finishes. The
	// caller must have already resumed the process (it is sitting in a
	// `<-p.resume` inside its last API call, or at startup).
	drive := func(p *proc) {
		for {
			req := <-p.yield
			p.req = req
			switch req.kind {
			case reqCompute:
				p.now += req.dt
				if req.chrg == 1 {
					p.stats.Comm += req.dt
				} else {
					p.stats.Compute += req.dt
				}
				p.resume <- struct{}{}
			case reqRecv:
				if tryRecv(p) {
					p.resume <- struct{}{}
					continue
				}
				p.blocked = true
				return
			case reqBarrier:
				barrierers = append(barrierers, p)
				p.blocked = true
				return
			case reqDone:
				p.done = true
				return
			}
		}
	}

	for _, p := range runnable {
		p.resume <- struct{}{}
		drive(p)
	}

	for {
		// Release a full barrier.
		if len(barrierers) == n-countDone(s.procs) && len(barrierers) > 0 {
			t := 0.0
			for _, p := range barrierers {
				if p.now > t {
					t = p.now
				}
			}
			waiting := barrierers
			barrierers = nil
			// Resume in deterministic order.
			sort.Slice(waiting, func(i, j int) bool { return waiting[i].id < waiting[j].id })
			for _, p := range waiting {
				p.stats.Wait += t - p.now
				p.now = t
				p.blocked = false
				p.resume <- struct{}{}
				drive(p)
			}
			continue
		}
		// Find a blocked receiver whose message is now available.
		progressed := false
		// Deterministic order: by rank.
		for _, p := range s.procs {
			if p.done || !p.blocked || p.req.kind != reqRecv {
				continue
			}
			if tryRecv(p) {
				p.blocked = false
				progressed = true
				p.resume <- struct{}{}
				drive(p)
				// Keep sweeping: drive may have posted messages that
				// unblock later ranks in this same pass.
			}
		}
		if progressed {
			continue
		}
		// Finished?
		if countDone(s.procs) == n {
			break
		}
		// No barrier release, no deliverable message, not all done.
		if len(barrierers) > 0 {
			// Some ranks in barrier, others blocked on recv forever.
			return nil, 0, fmt.Errorf("%w: %d ranks in barrier, others starved", ErrDeadlock, len(barrierers))
		}
		return nil, 0, ErrDeadlock
	}

	stats := make([]Stats, n)
	makespan := 0.0
	for i, p := range s.procs {
		if p.err != nil {
			return nil, 0, p.err
		}
		stats[i] = p.stats
		if p.now > makespan {
			makespan = p.now
		}
	}
	return stats, makespan, nil
}

func countDone(procs []*proc) int {
	c := 0
	for _, p := range procs {
		if p.done {
			c++
		}
	}
	return c
}
