package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks. v is not modified. An empty v
// yields NaN, which the result encoder turns into a failed run rather
// than a silent zero.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// quietQuartile is the percentile of repeated timings this benchmark
// reports wherever it is free to choose. The machines it runs on are
// shared: other tenants slow a stretch of a run by a tenth or more and
// never speed one up, so the quiet quarter of the samples says what the
// program costs and repeats from run to run, where a mean or a median
// over a loud stretch does not.
const quietQuartile = 25

// quiet is the quiet quartile of timings, for which less is better.
func quiet(v []float64) float64 { return percentile(v, quietQuartile) }

// quartileSpread is the distance between the first and third quartile
// of v as a share of its median, with the quartiles placed the way
// Python's statistics.quantiles(v, n=4) places them (exclusive method)
// — the acceptance rule this benchmark is held to.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
