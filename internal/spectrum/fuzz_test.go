package spectrum

import (
	"math"
	"testing"
)

// FuzzJammer drives every jammer family with fuzzer-chosen parameters
// and probes, asserting the two invariants the simulator depends on:
// construction either fails cleanly or yields a jammer that (1) never
// panics on any (slot, channel) query — including negative and
// out-of-range ones — and (2) is deterministic: rebuilding with the
// same inputs answers every probe identically.
func FuzzJammer(f *testing.F) {
	f.Add(uint64(1), 0.1, 0.2, 5.0, int64(100), int64(7), int32(2), uint8(1))
	f.Add(uint64(9), 0.0, 1.0, 1.0, int64(1), int64(-3), int32(-1), uint8(3))
	f.Add(uint64(42), 1.0, 0.0, 1e9, int64(4096), int64(1<<40), int32(200), uint8(0))
	f.Add(uint64(7), math.Inf(1), -0.5, math.NaN(), int64(0), int64(0), int32(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, pa, pb, hold float64, horizon, slot int64, ch int32, budget uint8) {
		if horizon > 1<<16 {
			horizon %= 1 << 16 // keep the fill cheap; range checks are covered by the huge-horizon validation cases
		}
		build := func() []Jammer {
			var js []Jammer
			if m, err := NewMarkov(4, horizon, pa, pb, seed); err == nil {
				js = append(js, m)
			}
			if p, err := NewPoisson(4, horizon, pa, hold, HoldGeometric, seed); err == nil {
				js = append(js, p)
			}
			if p, err := NewPoisson(4, horizon, pb, hold, HoldFixed, seed); err == nil {
				js = append(js, p)
			}
			if p, err := NewPeriodic(maxI64(horizon, 1), minI64(maxI64(horizon, 1), maxI64(slot%97, 0)), slot%13, nil); err == nil {
				js = append(js, p)
			}
			adv := NewReactiveAdversary(int(budget % 8))
			adv.ObserveActivity(0, []int{int(budget), 2, 0, 1})
			js = append(js, adv)
			js = append(js, Compose(js...))
			return js
		}
		probe := func(js []Jammer) []bool {
			var out []bool
			for _, j := range js {
				// Must not panic, whatever the query.
				out = append(out,
					j.Jammed(slot, ch),
					j.Jammed(-slot, -ch),
					j.Jammed(slot%maxI64(horizon, 1), ch%4),
					j.Jammed(0, 0),
				)
			}
			return out
		}
		a, b := build(), build()
		if len(a) != len(b) {
			t.Fatalf("construction not deterministic: %d vs %d jammers", len(a), len(b))
		}
		pa1, pb1 := probe(a), probe(b)
		for i := range pa1 {
			if pa1[i] != pb1[i] {
				t.Fatalf("probe %d not deterministic: %v vs %v", i, pa1[i], pb1[i])
			}
		}
	})
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
