package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported percentile: with
// fewer the value is set by a handful of outliers and does not repeat.
const tailMin = 10

// percentileLadder lists the tail percentiles the harness may report, highest
// first.
var percentileLadder = []float64{0.999, 0.99, 0.95, 0.90}

// median returns the middle value (mean of the two middle values for an even
// count); zero for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank q-quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// supported reports whether n samples leave at least tailMin beyond the
// q-quantile (p95 needs 200, p99 needs 1000).
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= tailMin-1e-9
}

// highestPercentile picks the highest ladder percentile not above limit that n
// samples support. ok is false when not even p90 is supported.
func highestPercentile(n int, limit float64) (q float64, ok bool) {
	for _, q := range percentileLadder {
		if q <= limit && supported(n, q) {
			return q, true
		}
	}
	return 0, false
}

// tail returns the q-quantile, refusing when the sample is too small to
// support it.
func tail(xs []float64, q float64) (float64, error) {
	if !supported(len(xs), q) {
		return 0, fmt.Errorf("p%g refused: %d samples leave fewer than %d beyond it", q*100, len(xs), tailMin)
	}
	return quantile(xs, q), nil
}

// tailAtMost returns the value at the highest supported percentile not above
// limit, and which percentile that was (the median when none is supported).
func tailAtMost(xs []float64, limit float64) (v, q float64) {
	q, ok := highestPercentile(len(xs), limit)
	if !ok {
		return median(xs), 0.5
	}
	return quantile(xs, q), q
}
