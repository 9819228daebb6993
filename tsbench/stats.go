package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles a report may quote, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten of n samples beyond it, so a quoted tail rests on more than a handful
// of observations. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if n-rank(q, n) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002) from
// pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median returns the middle of xs, averaging the two middle values of an
// even count (0 for none).
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

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
