package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: a percentile with fewer is mostly the luck of its few
// largest samples, so the helper refuses it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: sort ascending and take the value at 1-based rank
// k = ceil(p/100 · n). It refuses (returns an error) when fewer than
// minBeyond samples lie beyond that rank, i.e. when n − k < 10 — so a
// median needs at least 20 samples and a p90 at least 100.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-k, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median is the plain middle value (mean of the two middle values for an
// even count). It is used only for quantities measured a handful of times
// per run — set-ups, probe repetitions — never for a latency sample set,
// which goes through percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
