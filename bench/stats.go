package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// a benchmark's run-to-run spread is judged by. The second quartile is
// the median. A single sample is all three quartiles; none is NaN.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// relIQR is the distance between the first and third quartile as a share
// of the median.
func relIQR(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / q[1]
}
