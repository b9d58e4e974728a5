package workload

import (
	"math"
	"sort"
)

// Metric is one measured value with its unit, as the result line and
// the traced run print it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Percentile returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank rule — the smallest sample with at least p of the
// distribution at or below it — so every reported latency is one that
// was actually observed. xs need not be sorted; an empty xs yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Median is the middle sample, or the mean of the two middle samples.
// Unlike Percentile(xs, 0.5) it interpolates: it summarises a handful
// of repeated set-ups or runs, where nearest-rank would just pick one.
func Median(xs []float64) float64 {
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

// Mean is the arithmetic mean, 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SelfTimes returns, op by op, a layer's span minus the span of the
// layer it calls. The two spans of one op come from separate replays of
// the same request, so timer noise can make a difference negative; a
// layer cannot run for less than no time, so those clamp to 0. The
// slices are index-aligned; the shorter one bounds the result.
func SelfTimes(span, child []float64) []float64 {
	n := len(span)
	if len(child) < n {
		n = len(child)
	}
	out := make([]float64, n)
	for i := range out {
		if d := span[i] - child[i]; d > 0 {
			out[i] = d
		}
	}
	return out
}

// MinSamples is how many samples a percentile needs before it is
// reported: ten beyond it. The driver fails a run whose headline
// percentiles fall short.
func MinSamples(p float64) int {
	return int(math.Ceil(10 / (1 - p)))
}
