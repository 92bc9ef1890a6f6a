package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// xs is sorted in place; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle sample, or the mean of the two middle ones,
// as Python's statistics.median does. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, the
// rule the benchmark's steadiness bounds are judged by. It needs at least
// two samples; xs is sorted in place.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	sort.Float64s(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return q, true
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure each end-to-end metric's bound is compared with.
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok || q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / q[1]
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
