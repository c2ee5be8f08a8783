package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least q*n samples at or below it. It is computed from the raw
// samples, never from histogram buckets. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean returns the interquartile mean of xs: the mean of what is left
// after the lowest and the highest quarter are dropped. xs is sorted in
// place.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := len(xs) / 4
	mid := xs[k : len(xs)-k]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// ratio returns num/den, or 0 when there was nothing to count.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
