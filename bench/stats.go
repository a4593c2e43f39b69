package main

// stats.go holds the order statistics the benchmark reports: nearest-rank
// percentiles with the "at least ten samples beyond" rule, and the
// median/quartile summary -compare uses across passes.

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileLadder lists the percentiles a tail metric may fall back to,
// highest first.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// pickPercentile returns the highest ladder percentile not above nominal
// that leaves at least minBeyond of n samples beyond it; the median is the
// floor however few samples there are.
func pickPercentile(nominal float64, n int) float64 {
	for _, p := range percentileLadder {
		if p <= nominal && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of an ascending sample;
// 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// sortedCopy returns the samples in ascending order, leaving the input
// untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle of the samples (mean of the two middles for an
// even count); 0 for none.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so spreads
// computed here match the ones the acceptance procedure computes. One
// sample is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
