package crn

import (
	"context"
	"testing"
)

// Validation coverage for the facade Topology values backed by the
// previously orphaned graph generators (Cycle, Complete,
// RandomRegularish) plus structural sanity for each.

func TestRingTopology(t *testing.T) {
	s, err := New(WithTopology(Ring), WithNodes(12), WithChannels(4, 2, 0), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Delta() != 2 {
		t.Errorf("ring Δ = %d, want 2", s.Delta())
	}
	if got := len(s.Edges()); got != 12 {
		t.Errorf("ring on 12 nodes has %d edges, want 12", got)
	}
	if s.Diameter() != 6 {
		t.Errorf("ring diameter = %d, want 6", s.Diameter())
	}
	if _, err := New(WithTopology(Ring), WithNodes(2), WithChannels(4, 2, 0)); err == nil {
		t.Error("ring with n=2 should error")
	}
}

func TestCompleteTopology(t *testing.T) {
	s, err := New(WithTopology(Complete), WithNodes(9), WithChannels(4, 2, 0), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Delta() != 8 {
		t.Errorf("complete Δ = %d, want 8", s.Delta())
	}
	if got := len(s.Edges()); got != 9*8/2 {
		t.Errorf("K_9 has %d edges, want 36", got)
	}
	if s.Diameter() != 1 {
		t.Errorf("complete diameter = %d, want 1", s.Diameter())
	}
}

// TestTreeTopologyReachesN: with c ≤ 2 the tree's branching is 1, so
// the tree is a path, and it grows to the N nodes asked for.
func TestTreeTopologyReachesN(t *testing.T) {
	s, err := New(WithTopology(Tree), WithNodes(100), WithChannels(2, 1, 0), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 100 || s.Diameter() != 99 || len(s.Edges()) != 99 {
		t.Errorf("c = 2 tree on 100 nodes: n=%d D=%d edges=%d, want 100, 99, 99", s.N(), s.Diameter(), len(s.Edges()))
	}
}

func TestRegularTopology(t *testing.T) {
	// Density scales the target degree: d = round(Density·(n-1)).
	s, err := New(WithTopology(Regular), WithNodes(20), WithChannels(4, 2, 0), WithDensity(0.3), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	d := 6 // round(0.3 · 19)
	for u := 0; u < s.N(); u++ {
		deg := 0
		for _, e := range s.Edges() {
			if e[0] == u || e[1] == u {
				deg++
			}
		}
		if deg < 2 || deg > d+1 {
			t.Errorf("node %d degree %d outside [2, %d]", u, deg, d+1)
		}
	}
	// Density 0 picks the documented default d = 4.
	if _, err := New(WithTopology(Regular), WithNodes(20), WithChannels(4, 2, 0), WithSeed(3)); err != nil {
		t.Errorf("regular with default density: %v", err)
	}
	if _, err := New(WithTopology(Regular), WithNodes(2), WithChannels(4, 2, 0)); err == nil {
		t.Error("regular with n=2 should error")
	}
}

// TestNewTopologiesRunPrimitives: every newly exposed topology drives
// a full discovery run through the facade.
func TestNewTopologiesRunPrimitives(t *testing.T) {
	for _, topo := range []Topology{Ring, Complete, Regular} {
		s, err := New(WithTopology(topo), WithNodes(10), WithChannels(4, 2, 0), WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		res, err := Discovery(CSeek).Run(context.Background(), s, 5)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if res.Discovery.PairsTotal == 0 {
			t.Errorf("%s: no neighbor pairs", topo)
		}
	}
}
