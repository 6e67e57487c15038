package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the two middle values for an even count); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// tailPercentile picks the highest of p99/p95/p90, no higher than top, that
// still has at least ten samples above it, so the reported tail is never a
// single outlier. top is fixed per workload, so that a faster machine, which
// completes more statements in a run, does not report another percentile.
// With fewer than 100 samples nothing qualifies and p90 is reported anyway.
func tailPercentile(asc []float64, top int) (p int, v float64) {
	for _, p = range []int{99, 95, 90} {
		above := len(asc) - int(math.Ceil(float64(p)/100*float64(len(asc))))
		if p <= top && above >= 10 {
			break
		}
	}
	return p, percentile(asc, float64(p))
}

// geomean of positive values; 0 when empty or when any value is not
// positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), so -aa reports the same spread the
// acceptance check computes. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
