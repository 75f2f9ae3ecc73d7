package crn

import (
	"context"
	"testing"
)

// TestSetPeriodicPrimaryUsers: duty-cycled primary users set through
// WithPeriodicPrimaryUsers leave discovery complete at a 30% duty
// cycle, and a zero period is refused.
func TestSetPeriodicPrimaryUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(GNP), WithNodes(12), WithChannels(5, 2, 0), WithSeed(33),
		WithPeriodicPrimaryUsers(40, 12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discovery(CSeek).Run(context.Background(), s, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 30% duty with sub-step bursts: discovery should still complete
	// (E13's robustness finding).
	if d := res.Discovery; !d.AllDiscovered() {
		t.Errorf("discovered %d/%d under 30%% duty", d.PairsDiscovered, d.PairsTotal)
	}
	if _, err := New(WithTopology(GNP), WithNodes(12), WithChannels(5, 2, 0), WithSeed(33),
		WithPeriodicPrimaryUsers(0, 5)); err == nil {
		t.Error("zero period accepted")
	}
}

// TestSetMarkovPrimaryUsers: Markov primary users set through
// WithMarkovPrimaryUsers span a channel universe of at least c.
func TestSetMarkovPrimaryUsers(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(6), WithChannels(3, 2, 0), WithSeed(35),
		WithMarkovPrimaryUsers(0.01, 0.2, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	if s.Universe() < s.C() {
		t.Errorf("Universe() = %d below c = %d", s.Universe(), s.C())
	}
}
