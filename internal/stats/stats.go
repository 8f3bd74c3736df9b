// Package stats provides the statistical accumulators used by the
// experiments: streaming mean/variance (Welford), time-weighted averages
// for queue occupancy, fixed-interval time series, and percentiles.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates a running mean and variance in a single pass using
// Welford's numerically stable recurrence.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// TimeWeighted accumulates the time-weighted mean and variance of a
// piecewise-constant signal such as queue occupancy: each value holds from
// the instant it is reported until the next report.
type TimeWeighted struct {
	started   bool
	lastT     float64
	lastV     float64
	totalT    float64
	weightedV float64 // ∫ v dt
	weightedS float64 // ∫ v² dt
	min, max  float64
}

// Observe records that the signal took value v at time t (seconds). The
// previous value is credited with the elapsed interval.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.lastT, tw.lastV = t, v
		tw.min, tw.max = v, v
		return
	}
	dt := t - tw.lastT
	if dt > 0 {
		tw.totalT += dt
		tw.weightedV += tw.lastV * dt
		tw.weightedS += tw.lastV * tw.lastV * dt
	}
	tw.lastT, tw.lastV = t, v
	if v < tw.min {
		tw.min = v
	}
	if v > tw.max {
		tw.max = v
	}
}

// Finish closes the accumulation interval at time t, crediting the final
// value with its holding time.
func (tw *TimeWeighted) Finish(t float64) { tw.Observe(t, tw.lastV) }

// Mean returns the time-weighted mean.
func (tw *TimeWeighted) Mean() float64 {
	if tw.totalT == 0 {
		return tw.lastV
	}
	return tw.weightedV / tw.totalT
}

// Variance returns the time-weighted population variance.
func (tw *TimeWeighted) Variance() float64 {
	if tw.totalT == 0 {
		return 0
	}
	m := tw.Mean()
	v := tw.weightedS/tw.totalT - m*m
	if v < 0 { // numeric noise
		return 0
	}
	return v
}

// StdDev returns the time-weighted standard deviation.
func (tw *TimeWeighted) StdDev() float64 { return math.Sqrt(tw.Variance()) }

// Min returns the smallest observed value.
func (tw *TimeWeighted) Min() float64 { return tw.min }

// Max returns the largest observed value.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// JainFairness computes Jain's fairness index (Σx)² / (n·Σx²) for a set
// of per-flow allocations: 1 for a perfectly even split, 1/n when one
// flow takes everything. NaN for empty input or all-zero allocations.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
