package stats

import (
	"math"
	"testing"
	"testing/quick"

	"crn/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Errorf("Median = %v, want 3", s.Median)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min,Max = %v,%v want 1,5", s.Min, s.Max)
	}
	want := math.Sqrt(2) // population stddev of 1..5
	if !almostEqual(s.StdDev, want, 1e-9) {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {-0.5, 10}, {1.5, 40},
		{1.0 / 3, 20},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 3, 1e-9) {
		t.Errorf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestLogLogSlopeQuadratic(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 7*x*x)
	}
	fit, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) {
		t.Errorf("slope = %v, want 2", fit.Slope)
	}
}

func TestLogLogSlopeRejectsNonPositive(t *testing.T) {
	if _, err := LogLogSlope([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("zero x accepted")
	}
	if _, err := LogLogSlope([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Error("negative y accepted")
	}
}

// TestQuickSummaryInvariants: min ≤ p25 ≤ median ≤ p75 ≤ max and the
// mean lies within [min, max].
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		ordered := s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 && s.P75 <= s.Max
		meanOK := s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
		return ordered && meanOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomSample draws n samples shaped like sweep metrics: mostly small
// non-negative counts, some zeros (indicator metrics), occasional
// large values.
func randomSample(r *rng.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(4) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = float64(r.Intn(2))
		case 2:
			xs[i] = float64(r.Intn(1000))
		default:
			xs[i] = r.Float64() * 1e6
		}
	}
	return xs
}

// TestSummarizeMergeEqualsUnion is the distributed sweep's core stats
// invariant: Summarize is a pure function of the sample multiset. A
// random partition of a random sample, with the parts concatenated in
// a random order, must summarize bit for bit — not within epsilon —
// like the whole sample.
func TestSummarizeMergeEqualsUnion(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 300; trial++ {
		xs := randomSample(r, 1+r.Intn(64))
		want := Summarize(xs)

		k := 1 + r.Intn(6)
		parts := make([][]float64, k)
		for _, x := range xs {
			p := r.Intn(k)
			parts[p] = append(parts[p], x)
		}
		var merged []float64
		for _, p := range r.Perm(k) {
			merged = append(merged, parts[p]...)
		}
		if got := Summarize(merged); got != want {
			t.Fatalf("trial %d: %d parts concatenated %+v != whole sample %+v", trial, k, got, want)
		}
	}
}

// TestSummarizeOrderIndependent: three random samples summarize alike
// however they are grouped and ordered — (a‖b)‖c, a‖(b‖c), c‖b‖a and a
// random permutation of the union all give the same Summary, bit for
// bit.
func TestSummarizeOrderIndependent(t *testing.T) {
	cat := func(parts ...[]float64) []float64 {
		var out []float64
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	r := rng.New(2)
	for trial := 0; trial < 300; trial++ {
		a := randomSample(r, r.Intn(20))
		b := randomSample(r, r.Intn(20))
		c := randomSample(r, 1+r.Intn(20))
		want := Summarize(cat(cat(a, b), c))

		if got := Summarize(cat(a, cat(b, c))); got != want {
			t.Fatalf("trial %d: association changed the summary: %+v vs %+v", trial, got, want)
		}
		if got := Summarize(cat(c, b, a)); got != want {
			t.Fatalf("trial %d: reversed order changed the summary: %+v vs %+v", trial, got, want)
		}
		union := cat(a, b, c)
		perm := make([]float64, len(union))
		for i, j := range r.Perm(len(union)) {
			perm[i] = union[j]
		}
		if got := Summarize(perm); got != want {
			t.Fatalf("trial %d: permuted %+v != whole sample %+v", trial, got, want)
		}
	}
}

// TestQuickLinearFitRecovers: fits on exactly linear data recover the
// line within numerical tolerance.
func TestQuickLinearFitRecovers(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{0, 1, 2, 3, 4}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Slope, a, 1e-6) && almostEqual(fit.Intercept, b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
