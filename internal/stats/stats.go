// Package stats provides the small statistical toolkit the experiment
// harness needs: summaries of repeated measurements and log-log slope
// fits for scaling-shape checks ("does time grow like c²?").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements. The json tags keep the
// public sweep output (crn.Summary aliases this type) consistently
// camelCase.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

// Summarize computes a Summary. It returns a zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return summarizeSorted(s)
}

// summarizeSorted computes the Summary of an ascending-sorted,
// non-empty sample, with the moment sums taken in sorted order.
// Sorting first makes Summarize a pure function of the sample
// *multiset*: any two accumulation orders, or any partition of the
// sample across shards concatenated in any order, yield bit-identical
// Summaries. That is the invariant the distributed sweep's
// merge-equals-union guarantee rests on.
func summarizeSorted(s []float64) Summary {
	var sum, sumSq float64
	for _, x := range s {
		sum += x
		sumSq += float64(x * x)
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    s[0],
		P25:    Percentile(s, 0.25),
		Median: Percentile(s, 0.5),
		P75:    Percentile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of a sorted sample
// using linear interpolation. The input must be sorted ascending.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// String renders a Summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.0f med=%.0f max=%.0f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}

// Fit is a least-squares line y = Slope·x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = a·x + b by least squares. It returns an error for
// fewer than two points or degenerate x.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += float64(xs[i] * xs[i])
		sxy += float64(xs[i] * ys[i])
		syy += float64(ys[i] * ys[i])
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return Fit{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / den
	intercept := (sy - float64(slope*sx)) / n

	// R² = 1 - SS_res/SS_tot.
	meanY := sy / n
	ssTot := syy - float64(n*meanY*meanY)
	ssRes := 0.0
	for i := range xs {
		r := ys[i] - (float64(slope*xs[i]) + intercept)
		ssRes += float64(r * r)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// LogLogSlope fits log(y) = s·log(x) + b and returns s — the empirical
// polynomial degree of y's growth in x. All values must be positive.
func LogLogSlope(xs, ys []float64) (Fit, error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return Fit{}, fmt.Errorf("stats: log-log fit needs positive values, got (%v, %v)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}
