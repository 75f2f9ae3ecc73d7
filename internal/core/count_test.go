package core

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// runCount executes one standalone COUNT with m broadcasters around a
// listening star center and returns the center's estimate.
func runCount(t *testing.T, m int, seed uint64) int64 {
	t.Helper()
	n := m + 1
	g := graph.Star(n)
	a, err := chanassign.Identical(n, 1, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	delta := m
	if delta < 1 {
		delta = 1
	}
	p := Params{N: n, C: 1, K: 1, KMax: 1, Delta: delta}
	master := rng.New(seed ^ 0xC0FFEE)

	protos := make([]radio.Protocol, n)
	listener, err := NewCountListen(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos[0] = listener
	for i := 1; i < n; i++ {
		env := Env{ID: radio.NodeID(i), C: 1, Rand: master.Split(uint64(i))}
		b, err := NewCountBroadcast(p, env, 0)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = b
	}
	e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(1 << 20)
	if !st.Completed {
		t.Fatal("COUNT did not complete")
	}
	return listener.Count()
}

// TestCountLemma1 verifies the Lemma 1 guarantee: the estimate lands in
// [m, 4m] (exactly m for m ≤ 1), across broadcaster populations and
// trials. A tiny failure budget reflects "w.h.p.".
func TestCountLemma1(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const trials = 20
	failures, total := 0, 0
	for _, m := range []int{1, 2, 3, 5, 8, 13, 16, 25, 31} {
		for trial := 0; trial < trials; trial++ {
			got := runCount(t, m, uint64(1000*m+trial))
			total++
			lo, hi := int64(m), int64(4*m)
			if got < lo || got > hi {
				failures++
				t.Logf("m=%d trial=%d: estimate %d outside [%d,%d]", m, trial, got, lo, hi)
			}
		}
	}
	if failures > total/50 {
		t.Errorf("%d/%d COUNT estimates outside [m,4m]", failures, total)
	}
}

// newTestListener returns a COUNT listener for the unit tests below,
// which feed it outcomes directly.
func newTestListener(t *testing.T, p Params) *CountListen {
	t.Helper()
	l, err := NewCountListen(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCountZeroBroadcasters(t *testing.T) {
	// Direct listener unit: silence in every slot yields count 0.
	p := Params{N: 8, C: 1, K: 1, KMax: 1, Delta: 4}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	l := newTestListener(t, p)
	for s := 0; s < p.countSchedule().TotalSlots(); s++ {
		l.Observe(int64(s), nil)
	}
	if got := l.Count(); got != 0 {
		t.Errorf("count = %d for pure silence, want 0", got)
	}
}

func TestCountListenerTriggerRule(t *testing.T) {
	// A listener that hears every slot of round 0 must adopt estimate 4
	// (round 0 has 1-based index 1, estimate 2^(1+1)).
	p := Params{N: 16, C: 1, K: 1, KMax: 1, Delta: 8}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	sched := p.countSchedule()
	l := newTestListener(t, p)
	msg := &radio.Message{From: 7}
	for s := 0; s < sched.TotalSlots(); s++ {
		if sched.round(s) == 0 {
			l.Observe(int64(s), msg)
		} else {
			l.Observe(int64(s), nil)
		}
	}
	if got := l.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

func TestCountListenerLaterRound(t *testing.T) {
	// Hearing only in round 2 (estimate 4) yields count 2^(3+1) = 16.
	p := Params{N: 16, C: 1, K: 1, KMax: 1, Delta: 8}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	sched := p.countSchedule()
	l := newTestListener(t, p)
	msg := &radio.Message{From: 3}
	for s := 0; s < sched.TotalSlots(); s++ {
		if sched.round(s) == 2 {
			l.Observe(int64(s), msg)
		} else {
			l.Observe(int64(s), nil)
		}
	}
	if got := l.Count(); got != 16 {
		t.Errorf("count = %d, want 16", got)
	}
}

func TestCountListenerBelowThresholdFallback(t *testing.T) {
	// One lone message in one round stays below the trigger fraction,
	// so the count falls back to the number of distinct identities.
	p := Params{N: 64, C: 1, K: 1, KMax: 1, Delta: 16}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	sched := p.countSchedule()
	if sched.slotsPerRound < 10 {
		t.Skip("round too short for a sub-threshold test")
	}
	l := newTestListener(t, p)
	for s := 0; s < sched.TotalSlots(); s++ {
		if s == 1 {
			l.Observe(int64(s), &radio.Message{From: 9})
		} else {
			l.Observe(int64(s), nil)
		}
	}
	if got := l.Count(); got != 1 {
		t.Errorf("count = %d, want fallback distinct count 1", got)
	}
}

func TestCountHeardIdentities(t *testing.T) {
	g := graph.Star(4)
	a, err := chanassign.Identical(4, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: 4, C: 1, K: 1, KMax: 1, Delta: 3}
	master := rng.New(77)
	listener, err := NewCountListen(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := []radio.Protocol{listener, nil, nil, nil}
	for i := 1; i < 4; i++ {
		b, err := NewCountBroadcast(p, Env{ID: radio.NodeID(i), C: 1, Rand: master.Split(uint64(i))}, 0)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = b
	}
	e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1 << 20)
	heard := listener.Heard()
	if len(heard) != 3 {
		t.Errorf("heard %d distinct broadcasters, want 3 (got %v)", len(heard), heard)
	}
}

func TestCountScheduleShape(t *testing.T) {
	p := Params{N: 64, C: 4, K: 2, KMax: 2, Delta: 16}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	s := p.countSchedule()
	// lg 16 = 4 rounds plus one: estimates 1,2,4,8,16 reach Δ.
	if s.rounds != 5 {
		t.Errorf("rounds = %d, want 5", s.rounds)
	}
	if s.slotsPerRound < p.Tuning.CountMinRoundSlots {
		t.Errorf("slotsPerRound = %d below floor %d", s.slotsPerRound, p.Tuning.CountMinRoundSlots)
	}
	if s.TotalSlots() != s.rounds*s.slotsPerRound {
		t.Error("TotalSlots inconsistent")
	}
	if got := s.coins[0]; got != rng.NewCoin(1) {
		t.Errorf("round 0 coin = %+v, want the p = 1 coin", got)
	}
	if got := s.coins[3]; got != rng.NewCoin(0.125) {
		t.Errorf("round 3 coin = %+v, want the p = 0.125 coin", got)
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{name: "zero n", p: Params{N: 0, C: 1, K: 1, KMax: 1, Delta: 1}},
		{name: "zero c", p: Params{N: 2, C: 0, K: 1, KMax: 1, Delta: 1}},
		{name: "k over c", p: Params{N: 2, C: 2, K: 3, KMax: 3, Delta: 1}},
		{name: "kmax under k", p: Params{N: 2, C: 4, K: 3, KMax: 2, Delta: 1}},
		{name: "delta over n-1", p: Params{N: 4, C: 2, K: 1, KMax: 1, Delta: 4}},
		{name: "zero delta", p: Params{N: 4, C: 2, K: 1, KMax: 1, Delta: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Normalize(); err == nil {
				t.Errorf("Normalize accepted %+v", tt.p)
			}
		})
	}
}

func TestLg2(t *testing.T) {
	tests := []struct{ in, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10},
	}
	for _, tt := range tests {
		if got := lg2(tt.in); got != tt.want {
			t.Errorf("lg2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}
