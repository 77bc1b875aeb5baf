package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {1.0, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 1..1000: p99 is the 990th value, with exactly 10 samples above it.
	s := seq(1000)
	if got := percentile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, .99) = %d, want 10", got)
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},     // even the median leaves only 5 above it
		{21, 0.5, true},    // median rank 11, 10 above
		{100, 0.9, true},   // p95 leaves 5, p90 leaves 10
		{999, 0.95, true},  // p99 leaves 9
		{1000, 0.99, true}, // p99 leaves 10
		{11000, 0.999, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestP99NeedsTenBeyond(t *testing.T) {
	if _, err := p99(seq(999)); err == nil {
		t.Error("p99 of 999 samples: want an error, 9 samples lie beyond it")
	}
	got, err := p99(seq(1000))
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(4), 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7, 9}, 6.5, 9.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	// 1..10: quartiles 2.75 and 8.25 around a median of 5.5.
	if got := relSpread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
}
