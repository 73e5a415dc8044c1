package main

import "sort"

// summary is one timing as the benchmark reports it: the median with
// its quartiles and the sample count, so a reader can tell a shift of
// the median from a wide spread.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// convention the benchmark's spread checks use. One sample is its own
// median and quartiles; no samples give the zero summary.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: median(s), Q1: quantile(s, 1), Q3: quantile(s, 3), N: n}
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the k-th quartile (k in 1..3) of an ascending slice
// of at least two values, interpolating at position k*(n+1)/4 (1-based)
// with the index clamped to the inner pairs, line for line as
// statistics.quantiles does (it extrapolates past the extremes of very
// small samples rather than clipping).
func quantile(s []float64, k int) float64 {
	n := len(s)
	m := n + 1
	j := max(1, min(k*m/4, n-1))
	delta := float64(k*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
