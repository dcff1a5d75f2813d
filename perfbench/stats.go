package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it: a percentile estimated from fewer is not reported.
const minTail = 10

// median returns the median of xs (the mean of the two middle values for
// an even count) without reordering xs. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean returns the mean of xs without its lowest and highest
// share of samples (int(share*len) from each end; 0 <= share < 0.5). It
// returns 0 for no samples.
func trimmedMean(xs []float64, share float64) float64 {
	s := sorted(xs)
	k := int(share * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and whether at least minTail samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minTail
}

// geomean returns the geometric mean of xs; any non-positive value makes
// the mean meaningless, so it returns 0 then.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
