package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i) // descending: percentile must not rely on input order
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // NaN = refused
	}{
		{199, 95, math.NaN()}, // 9.95 samples beyond p95
		{200, 95, 189.05},
		{999, 99, math.NaN()},
		{1000, 99, 989.01},
		{100, 90, 89.1},
		{99, 90, math.NaN()},
		{199, 5, math.NaN()}, // the low tail is held to the same rule
		{6, 50, 2.5},         // the median is always reported, with its n
		{1, 50, 0},
		{0, 50, math.NaN()},
		{100, 0, math.NaN()},
		{100, 100, math.NaN()},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		switch {
		case math.IsNaN(tc.want) && err == nil:
			t.Errorf("p%g of %d samples = %v, want a refusal", tc.p, tc.n, got)
		case !math.IsNaN(tc.want) && (err != nil || math.Abs(got-tc.want) > 1e-9):
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestHighestTailPicksWhatTheSampleSupports(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}} {
		if _, p := highestTail(seq(tc.n)); p != tc.p {
			t.Errorf("highestTail of %d samples reports p%g, want p%g", tc.n, p, tc.p)
		}
	}
	if median(nil) != 0 {
		t.Error("median of no samples must read 0")
	}
}
