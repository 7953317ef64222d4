package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples:
// the smallest sample with at least p·n samples at or below it. It sorts
// samples in place and returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median of values (mean of the middle pair for an even count); values
// are not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), the
// method the steadiness criterion is defined with. Fewer than two values
// give their single value (or 0) for both.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		// Clamp j to [1, n-1] before taking delta, exactly as Python
		// does (small samples then extrapolate from the end pair).
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of values as a share of their
// median (0 when the median is 0).
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
