package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order, so the helper must sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 50, 10},   // rank ceil(10) = 10, 10 beyond
		{21, 50, 11},   // rank ceil(10.5) = 11, 10 beyond
		{100, 90, 90},  // rank 90, 10 beyond
		{120, 90, 108}, // rank 108, 12 beyond
		{40, 75, 30},   // rank 30, 10 beyond
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("p%v of %d: %v", c.p, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%v of %d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{19, 50}, {99, 90}, {0, 50}, {39, 75}} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d samples = %v, want a refusal", c.p, c.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
