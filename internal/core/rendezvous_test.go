package core

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

func TestHopStrategyString(t *testing.T) {
	tests := []struct {
		s    HopStrategy
		want string
	}{
		{HopAlways, "always"},
		{HopCoin, "coin"},
		{HopBackoff, "backoff"},
		{HopStrategy(99), "HopStrategy(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewHopBroadcasterValidation(t *testing.T) {
	p := Params{N: 4, C: 3, K: 1, KMax: 1, Delta: 2}
	r := rng.New(1)
	env := Env{ID: 0, C: 3, Rand: r}
	if _, err := NewHopBroadcaster(p, Env{C: 2, Rand: r}, HopCoin, false, 0, 0, 10); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := NewHopBroadcaster(p, env, HopCoin, false, 0, 0, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewHopBroadcaster(p, env, HopStrategy(42), false, 0, 0, 10); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := NewHopBroadcaster(p, env, HopCoin, true, 0, 0, 10); err == nil {
		t.Error("modular rate 0 accepted")
	}
}

func TestHopAlwaysBroadcastsEverySlot(t *testing.T) {
	p := Params{N: 4, C: 3, K: 1, KMax: 1, Delta: 2}
	h, err := NewHopBroadcaster(p, Env{ID: 1, C: 3, Rand: rng.New(2)}, HopAlways, false, 0, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a := h.Act(int64(i))
		if a.Kind != radio.Broadcast {
			t.Fatalf("slot %d: kind %v, want Broadcast", i, a.Kind)
		}
		if a.Ch < 0 || a.Ch >= 3 {
			t.Fatalf("slot %d: channel %d out of range", i, a.Ch)
		}
		h.Observe(int64(i), radio.Delivery{From: -1})
	}
	if !h.Done() {
		t.Error("not done after budget")
	}
}

func TestHopModularSequence(t *testing.T) {
	p := Params{N: 4, C: 5, K: 1, KMax: 1, Delta: 2}
	h, err := NewHopBroadcaster(p, Env{ID: 1, C: 5, Rand: rng.New(3)}, HopAlways, true, 3, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	// ch = (3t + 2) mod 5 and the sequence must visit every channel
	// (3 is coprime with 5).
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		a := h.Act(int64(i))
		want := (3*i + 2) % 5
		if a.Ch != want {
			t.Fatalf("slot %d: channel %d, want %d", i, a.Ch, want)
		}
		seen[a.Ch] = true
		h.Observe(int64(i), radio.Delivery{From: -1})
	}
	if len(seen) != 5 {
		t.Errorf("modular hop visited %d channels, want 5", len(seen))
	}
}

func TestHopBackoffSweepsLevels(t *testing.T) {
	p := Params{N: 32, C: 2, K: 1, KMax: 1, Delta: 16}
	h, err := NewHopBroadcaster(p, Env{ID: 1, C: 2, Rand: rng.New(4)}, HopBackoff, false, 0, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast frequency must be non-trivial: the sweep averages
	// (1/Δ + 2/Δ + ... + 1/2)/lgΔ ≈ 1/lgΔ ≈ 0.25 for Δ=16.
	bcast := 0
	for i := 0; i < 4000; i++ {
		if h.Act(int64(i)).Kind == radio.Broadcast {
			bcast++
		}
		h.Observe(int64(i), radio.Delivery{From: -1})
	}
	rate := float64(bcast) / 4000
	if rate < 0.1 || rate > 0.5 {
		t.Errorf("backoff broadcast rate %v outside plausible band", rate)
	}
}

func TestListenRecorder(t *testing.T) {
	g := graph.Star(3)
	a, err := chanassign.Identical(3, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: 3, C: 1, K: 1, KMax: 1, Delta: 2}
	master := rng.New(6)
	lr, err := NewListenRecorder(p, Env{ID: 0, C: 1, Rand: master.Split(0)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	// One leaf broadcasts every slot, the other never: only the first
	// should be heard (it is alone on the channel).
	h1, err := NewHopBroadcaster(p, Env{ID: 1, C: 1, Rand: master.Split(1)}, HopAlways, false, 0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	idle := &scriptIdle{budget: 64}
	e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, []radio.Protocol{lr, h1, idle})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	if lr.HeardCount() != 1 {
		t.Fatalf("heard %d ids, want 1", lr.HeardCount())
	}
	if lr.FirstHeard(1) != 0 {
		t.Errorf("FirstHeard(1) = %d, want 0", lr.FirstHeard(1))
	}
	if lr.FirstHeard(2) != -1 {
		t.Errorf("FirstHeard(2) = %d, want -1", lr.FirstHeard(2))
	}
	if lr.LastFirstHeard() != 0 {
		t.Errorf("LastFirstHeard() = %d, want 0", lr.LastFirstHeard())
	}
}

func TestListenRecorderValidation(t *testing.T) {
	p := Params{N: 3, C: 2, K: 1, KMax: 1, Delta: 2}
	r := rng.New(1)
	if _, err := NewListenRecorder(p, Env{C: 1, Rand: r}, 10); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := NewListenRecorder(p, Env{C: 2, Rand: r}, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestListenRecorderEmptyLastFirstHeard(t *testing.T) {
	p := Params{N: 3, C: 2, K: 1, KMax: 1, Delta: 2}
	lr, err := NewListenRecorder(p, Env{ID: 0, C: 2, Rand: rng.New(1)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lr.LastFirstHeard() != -1 {
		t.Error("LastFirstHeard() != -1 for silent run")
	}
}

// scriptIdle idles for a fixed budget.
type scriptIdle struct {
	budget int
	used   int
}

func (s *scriptIdle) Act(_ int64) radio.Action          { return radio.Action{Kind: radio.Idle} }
func (s *scriptIdle) Observe(_ int64, _ radio.Delivery) { s.used++ }
func (s *scriptIdle) Done() bool                        { return s.used >= s.budget }
