package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be in ascending order and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-quantile among n
// samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// beyond is the number of samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentiles are the candidates highestTail chooses from.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// highestTail returns the highest percentile of tailPercentiles that has
// at least minBeyond samples above it, and false when n is too small for
// any of them.
func highestTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// tail is the highest percentile samples support, with its value and
// the sample count, for the detail line.
type tail struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

func tailOf(samples []float64) tail {
	t := tail{Samples: len(samples)}
	if p, ok := highestTail(len(samples)); ok {
		t.Percentile, t.MS = p*100, percentile(sortedCopy(samples), p)
	}
	return t
}

// p99 returns the 99th percentile of unsorted samples, or an error when
// fewer than minBeyond samples lie above it.
func p99(samples []float64) (float64, error) {
	if beyond(len(samples), 0.99) < minBeyond {
		return 0, fmt.Errorf("p99 needs %d samples beyond it; have %d samples in all", minBeyond, len(samples))
	}
	return percentile(sortedCopy(samples), 0.99), nil
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's acceptance check applies. Fewer than two values have no
// spread: both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

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

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
