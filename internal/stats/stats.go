// Package stats provides the descriptive statistics the evaluation needs:
// percentiles (tail latency), CDFs (Fig. 1), RMSE (Fig. 2), and summary
// digests of latency samples.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile of xs (p in [0,100]) using linear
// interpolation between closest ranks, matching numpy.percentile's default.
// It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	cp := append([]float64(nil), xs...)
	sortFloats(cp)
	return percentileSorted(cp, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RMSE returns the root mean squared error between predictions and truth.
// The slices must have equal, non-zero length.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// CDF returns the empirical CDF of xs evaluated at up to points evenly-spaced
// quantiles. The result is sorted by X.
func CDF(xs []float64, points int) []CDFPoint {
	if len(xs) == 0 || points <= 0 {
		return nil
	}
	cp := append([]float64(nil), xs...)
	sortFloats(cp)
	if points > len(cp) {
		points = len(cp)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(cp) / points
		if idx > len(cp) {
			idx = len(cp)
		}
		out = append(out, CDFPoint{X: cp[idx-1], P: float64(idx) / float64(len(cp))})
	}
	return out
}

// Summary is a digest of a sample set.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// SummarizeInPlace computes a Summary of xs by sorting xs itself: on return
// xs is in ascending order. It makes no copy, so a caller that wants its
// samples in their original order keeps its own.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sortFloats(xs)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  xs[0],
		Max:  xs[len(xs)-1],
		P50:  percentileSorted(xs, 50),
		P90:  percentileSorted(xs, 90),
		P95:  percentileSorted(xs, 95),
		P99:  percentileSorted(xs, 99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.P50, s.P99, s.Max)
}

// Welford accumulates mean/variance in one pass without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
