package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(append([]float64(nil), s...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// A failed request's +Inf sorts last and owns the top ranks.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(values, n=4),
// the definition the steadiness criterion uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1.5, 2.5, 10, 7, 3, 4, 4.5}, 2.5, 7},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}
