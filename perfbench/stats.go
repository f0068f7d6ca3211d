package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" method as Python's statistics.quantiles(xs,
// n=4), so a spread computed here matches one computed from the printed
// values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return exclusiveQuantile(s, 1), median(s), exclusiveQuantile(s, 3)
}

// exclusiveQuantile is statistics.quantiles' default method for cut point
// i of 4 over sorted data.
func exclusiveQuantile(sorted []float64, i int) float64 {
	n := len(sorted)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 <= p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
