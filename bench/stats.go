package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile (p in (0,100]) of the
// samples: the smallest value with at least p% of the samples at or
// below it. With fewer than 100 samples p99 is the maximum; the records
// carry the sample counts so a reader can tell.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail is the highest percentile that still has at least ten samples
// beyond it, capped at p99: with 1 000 samples or more it is p99, with
// fewer it is the 11th largest sample. A nearest-rank p99 of a few dozen
// samples is their maximum, which no bound can hold steady.
func tail(samples []float64) (value, pct float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	beyond := n / 100
	if beyond < 10 {
		beyond = 10
	}
	if beyond >= n {
		return s[0], 100 / float64(n)
	}
	i := n - 1 - beyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// median interpolates between the middle pair of an even-sized sample.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is how
// the benchmark contract measures run-to-run spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
