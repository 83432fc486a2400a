package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs and the number of samples strictly above that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// rounded so that p·n/100 landing on an integer is not pushed up by
// floating-point error.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// requirePercentile is percentile with the minBeyond rule enforced: it
// fails when fewer than minBeyond samples lie beyond the requested rank.
func requirePercentile(name string, xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g rests on %d samples beyond it (of %d); need %d",
			name, p, beyond, len(xs), minBeyond)
	}
	return v, nil
}
