package spectrum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNoneNeverJams(t *testing.T) {
	var j None
	for s := int64(0); s < 100; s++ {
		if j.Jammed(s, int32(s%5)) {
			t.Fatal("None jammed a channel")
		}
	}
}

func TestPeriodicValidation(t *testing.T) {
	if _, err := NewPeriodic(0, 0, 0, nil); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewPeriodic(10, -1, 0, nil); err == nil {
		t.Error("negative onSlots accepted")
	}
	if _, err := NewPeriodic(10, 11, 0, nil); err == nil {
		t.Error("onSlots > period accepted")
	}
}

func TestPeriodicPattern(t *testing.T) {
	j, err := NewPeriodic(10, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 30; s++ {
		want := s%10 < 3
		if got := j.Jammed(s, 0); got != want {
			t.Errorf("Jammed(%d, 0) = %v, want %v", s, got, want)
		}
	}
}

func TestPeriodicStride(t *testing.T) {
	j, err := NewPeriodic(10, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 1 is shifted by 5: occupied when (s+5)%10 < 3.
	for s := int64(0); s < 20; s++ {
		want := (s+5)%10 < 3
		if got := j.Jammed(s, 1); got != want {
			t.Errorf("Jammed(%d, 1) = %v, want %v", s, got, want)
		}
	}
}

func TestPeriodicChannelFilter(t *testing.T) {
	j, err := NewPeriodic(4, 4, 0, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Jammed(0, 2) {
		t.Error("listed channel not jammed")
	}
	if j.Jammed(0, 1) {
		t.Error("unlisted channel jammed")
	}
}

func TestPeriodicNegativeSlot(t *testing.T) {
	j, err := NewPeriodic(10, 3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Must not panic and must stay within the periodic pattern.
	_ = j.Jammed(-25, 3)
}

func TestMarkovValidation(t *testing.T) {
	if _, err := NewMarkov(0, 10, 0.1, 0.1, 1); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewMarkov(2, 0, 0.1, 0.1, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewMarkov(2, 10, 1.5, 0.1, 1); err == nil {
		t.Error("pBusy > 1 accepted")
	}
	if _, err := NewMarkov(2, 10, 0.1, -0.1, 1); err == nil {
		t.Error("negative pFree accepted")
	}
	if _, err := NewMarkov(2, 1<<30, 0.1, 0.1, 1); err == nil {
		t.Error("huge horizon accepted")
	}
	if _, err := NewMarkov(2, 10, math.NaN(), 0.1, 1); err == nil {
		t.Error("NaN pBusy accepted")
	}
	if _, err := NewMarkov(2, 10, 0.1, math.NaN(), 1); err == nil {
		t.Error("NaN pFree accepted")
	}
}

func TestMarkovDeterminism(t *testing.T) {
	a, err := NewMarkov(3, 500, 0.05, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMarkov(3, 500, 0.05, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for ch := int32(0); ch < 3; ch++ {
		for s := int64(0); s < 500; s++ {
			if a.Jammed(s, ch) != b.Jammed(s, ch) {
				t.Fatalf("same-seed Markov jammers diverged at (%d,%d)", s, ch)
			}
		}
	}
}

func TestMarkovOutOfRange(t *testing.T) {
	m, err := NewMarkov(2, 100, 0.5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jammed(-1, 0) || m.Jammed(100, 0) || m.Jammed(5, 2) || m.Jammed(5, -1) {
		t.Error("out-of-range query reported jammed")
	}
}

func TestMarkovStationaryOccupancy(t *testing.T) {
	// Stationary occupancy of the on/off chain is pBusy/(pBusy+pFree).
	const pBusy, pFree = 0.02, 0.08
	m, err := NewMarkov(8, 50000, pBusy, pFree, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := OccupancyFraction(m, 8, 50000)
	want := pBusy / (pBusy + pFree)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("occupancy = %v, want ~%v", got, want)
	}
}

func TestOccupancyFractionPeriodic(t *testing.T) {
	j, err := NewPeriodic(10, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := OccupancyFraction(j, 4, 1000)
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("occupancy = %v, want 0.3", got)
	}
	if OccupancyFraction(j, 0, 10) != 0 || OccupancyFraction(j, 3, 0) != 0 {
		t.Error("degenerate windows should report 0")
	}
}

// TestQuickPeriodicOccupancyMatchesDuty: for any valid (period, on)
// pair the occupancy over whole periods equals on/period exactly.
func TestQuickPeriodicOccupancyMatchesDuty(t *testing.T) {
	f := func(periodRaw, onRaw uint8) bool {
		period := int64(periodRaw%30) + 1
		on := int64(onRaw) % (period + 1)
		j, err := NewPeriodic(period, on, 0, nil)
		if err != nil {
			return false
		}
		window := period * 10
		got := OccupancyFraction(j, 2, window)
		want := float64(on) / float64(period)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
