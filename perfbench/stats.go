package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p95 over 40 samples rests on two values and is not shown.
const minBeyond = 10

// tailCandidates are the percentiles tailPercentile chooses from, in
// tenths of a percent, highest first.
var tailCandidates = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when not even the
// median does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n*(1000-p) >= minBeyond*1000 {
			return float64(p) / 10, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
// xs need not be sorted; it is not modified. It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even. It is 0 for no samples.
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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
