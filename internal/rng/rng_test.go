package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs for different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(777)
	a := parent.Split(1)
	b := parent.Split(2)
	aAgain := parent.Split(1)

	// Same id twice gives the same stream.
	for i := 0; i < 100; i++ {
		if a.Uint64() != aAgain.Uint64() {
			t.Fatal("Split is not deterministic for equal ids")
		}
	}
	// Different ids give different streams.
	a = parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs for sibling streams", same)
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed the parent stream")
		}
	}
}

// TestSplitStreamMatchesSplit: a SplitStream stepped with Next yields
// exactly the sequence of the Source Split returns, for ids that
// include 0 and the extremes, and leaves the parent untouched.
func TestSplitStreamMatchesSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xFACADE, ^uint64(0)} {
		parent, twin := New(seed), New(seed)
		for _, id := range []uint64{0, 1, 129, 1 << 40, ^uint64(0)} {
			src, st := parent.Split(id), parent.SplitStream(id)
			for i := 0; i < 1000; i++ {
				var u uint64
				if u, st = st.Next(); u != src.Uint64() {
					t.Fatalf("seed %d id %d: draw %d of SplitStream differs from Split's", seed, id, i)
				}
			}
		}
		for i := 0; i < 10; i++ {
			if parent.Uint64() != twin.Uint64() {
				t.Fatalf("seed %d: SplitStream perturbed the parent stream", seed)
			}
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(6)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntRange(3,5) hit %d values, want 3", len(seen))
	}
	if got := r.IntRange(7, 7); got != 7 {
		t.Errorf("IntRange(7,7) = %d, want 7", got)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		// 5-sigma band for a binomial with p=1/10.
		sigma := math.Sqrt(want * (1 - 1.0/n))
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("bucket %d: count %d deviates from %f by more than 5 sigma", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(11)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) = true")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) = false")
	}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) empirical rate = %v", p)
	}
}

func TestOneIn(t *testing.T) {
	r := New(13)
	const trials = 80000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.OneIn(8) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.125) > 0.01 {
		t.Errorf("OneIn(8) empirical rate = %v, want ~0.125", p)
	}
	for i := 0; i < 100; i++ {
		if !r.OneIn(1) {
			t.Fatal("OneIn(1) = false")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(21)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("Perm first-element bucket %d: %d, want ~%f", i, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(41)
	weights := []int64{0, 10, 30, 0, 60}
	const trials = 100000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight entries chosen: %v", counts)
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		want := float64(trials) * float64(w) / 100
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Errorf("bucket %d: %d, want ~%f", i, counts[i], want)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	t.Run("all zero", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for all-zero weights")
			}
		}()
		New(1).WeightedChoice([]int64{0, 0})
	})
	t.Run("negative", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for negative weight")
			}
		}()
		New(1).WeightedChoice([]int64{5, -1})
	})
}

func TestSampleK(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleKFull(t *testing.T) {
	s := New(1).SampleK(10, 10)
	if len(s) != 10 {
		t.Fatalf("SampleK(10,10) returned %d values", len(s))
	}
}

func TestSampleKUniform(t *testing.T) {
	r := New(55)
	const n, k, trials = 10, 3, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("element %d sampled %d times, want ~%f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
