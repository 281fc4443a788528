package main

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/gradsync"
	"ptychopath/internal/halo"
	"ptychopath/internal/solver"
)

// reconstruction is what one library run hands back: the engine's
// public outputs plus the callback timestamps the harness took.
type reconstruction struct {
	start, end time.Time
	// iterEnd[i] is when OnIteration(i) fired.
	iterEnd []time.Time
	costs   []float64

	// Parallel engines only.
	bytesSent, msgsSent       int64
	rankComputeNS, rankCommNS []int64
	rankMemBytes              []int64
	rankLocations             []int
}

// gaps returns the iteration durations in ms: the gap between
// consecutive OnIteration callbacks, the first measured from the call.
func (r *reconstruction) gaps() []float64 {
	out := make([]float64, len(r.iterEnd))
	prev := r.start
	for i, t := range r.iterEnd {
		out[i] = ms(t.Sub(prev).Nanoseconds())
		prev = t
	}
	return out
}

// reconstruct runs alg on prob from vacuum for iters iterations.
func reconstruct(ctx context.Context, alg string, prob *solver.Problem, iters, rounds int) (*reconstruction, error) {
	r := &reconstruction{}
	onIter := func(_ int, cost float64) {
		r.iterEnd = append(r.iterEnd, time.Now())
		r.costs = append(r.costs, cost)
	}
	init := vacuum(prob)
	var err error
	r.start = time.Now()
	switch alg {
	case "serial":
		_, err = solver.Reconstruct(prob, init, solver.Options{
			StepSize: stepSize, Iterations: iters, OnIteration: onIter, Ctx: ctx,
		})
	case "gd":
		mesh, merr := newMesh(prob)
		if merr != nil {
			return nil, merr
		}
		var res *gradsync.Result
		res, err = gradsync.Reconstruct(prob, init, gradsync.Options{
			Mesh: mesh, StepSize: stepSize, Iterations: iters, RoundsPerIteration: rounds,
			Timeout: time.Minute, OnIteration: onIter, Ctx: ctx,
		})
		if res != nil {
			r.bytesSent, r.msgsSent = res.BytesSent, res.MessagesSent
			r.rankComputeNS, r.rankCommNS = res.PerRankComputeNS, res.PerRankCommNS
			r.rankMemBytes, r.rankLocations = res.PerRankMemBytes, res.PerRankLocations
		}
	case "hve":
		mesh, merr := newMesh(prob)
		if merr != nil {
			return nil, merr
		}
		var res *halo.Result
		res, err = halo.Reconstruct(prob, init, halo.Options{
			Mesh: mesh, HaloWidth: mesh.Halo, ExtraRows: 1,
			StepSize: stepSize, Iterations: iters, ExchangesPerIteration: rounds,
			Timeout: time.Minute, OnIteration: onIter, Ctx: ctx,
		})
		if res != nil {
			r.bytesSent, r.msgsSent = res.BytesSent, res.MessagesSent
			r.rankMemBytes, r.rankLocations = res.PerRankMemBytes, res.PerRankLocations
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
	r.end = time.Now()
	return r, err
}
