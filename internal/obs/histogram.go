package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefSecondsBuckets is the default histogram bucket layout for durations
// in seconds: a 1-2.5-5 decade ladder from 1µs to 10s. It spans a single
// tensor op on one micro-batch up to a whole training round.
func DefSecondsBuckets() []float64 {
	var b []float64
	for d := 1e-6; d < 20; d *= 10 {
		b = append(b, d, 2.5*d, 5*d)
	}
	return b
}

// LinearBuckets returns n buckets starting at start with the given width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// Histogram is a fixed-bucket histogram: per-bucket atomic counts plus a
// total sum, supporting Prometheus exposition and linear-interpolation
// quantile estimates. Observe is lock-free (one binary search plus two
// atomic adds).
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf last
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
	off    bool
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefSecondsBuckets()
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("obs: histogram buckets not ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.off {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket. The estimate is exact to within the
// bucket's width; samples landing in the overflow bucket report the
// largest finite bound. An empty (or nil) histogram reports 0 — never
// NaN, which would poison JSON marshaling and Prometheus scrapes of
// registered-but-unobserved series.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == len(h.bounds) { // overflow bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
