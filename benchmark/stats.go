package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vs, which need not be sorted. An empty sample has no percentile: 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailCandidates are the percentiles a timing may be reported at, in
// rising order.
var tailCandidates = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the percentile a sample of n timings supports:
// the highest candidate that still has at least ten samples beyond it.
// A sample too small for even the median's rule (n < 20) reports 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 not being exactly 0.1
			best = p
		}
	}
	return best
}

// timing is how every wall-clock series is reported: the median, the
// highest percentile the sample supports, and the sample count.
type timing struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_percentile"`
	N       int     `json:"samples"`
}

func summarize(vs []float64) timing {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	t := timing{N: len(s), TailPct: tailPercentile(len(s))}
	if len(s) == 0 {
		return t
	}
	t.P50 = sortedPercentile(s, 50)
	if t.TailPct > 0 {
		t.Tail = sortedPercentile(s, t.TailPct)
	}
	return t
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance driver
// computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
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

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
