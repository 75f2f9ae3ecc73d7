package core

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// TestLemma2PartOneSuffices reproduces Lemma 2 at test scale: when no
// channel is crowded (every channel hosts far fewer than 8c of a
// node's neighbors), part one alone discovers every pair — all
// first-heard slots land before part two begins.
func TestLemma2PartOneSuffices(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g, err := graph.GNP(16, 0.3, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(16, 5, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	// Precondition of the lemma: Δ < 8c means no channel can be
	// crowded in the Lemma 2/3 sense.
	if in.p.Delta >= 8*in.p.C {
		t.Fatalf("instance is crowded (Δ=%d ≥ 8c=%d); not a Lemma 2 workload", in.p.Delta, 8*in.p.C)
	}
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	late := 0
	for u := 0; u < g.N(); u++ {
		s := ds[u].(*CSeek)
		for _, v := range g.Neighbors(u) {
			slot, ok := s.FirstHeard(radio.NodeID(v))
			if !ok {
				t.Errorf("node %d never heard neighbor %d", u, v)
				continue
			}
			if slot >= s.PartOneSlots() {
				late++
			}
		}
	}
	// Lemma 2 is a w.h.p. statement; allow a tiny tail.
	if late > 2 {
		t.Errorf("%d first-hearings landed in part two on an uncrowded instance", late)
	}
}

// TestCGCastFullStar runs the full-fidelity pipeline on a star — a
// topology where one physical node simulates every virtual line-graph
// node, exercising the local-simulation path of the coloring.
func TestCGCastFullStar(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-fidelity test")
	}
	g := graph.Star(5)
	a, err := chanassign.SharedCore(5, 3, 2, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 5, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree()}
	res, err := RunCGCast(nw, BroadcastConfig{
		Params: p,
		D:      g.Diameter(),
		Source: 2, // start from a leaf: message must cross the center
		Mode:   ExchangeFull,
		Seed:   24,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, inf := range res.Informed {
		if !inf {
			t.Errorf("node %d uninformed", u)
		}
	}
	if !res.ColoringValid || res.EdgesDropped != 0 {
		t.Errorf("coloring valid=%v dropped=%d", res.ColoringValid, res.EdgesDropped)
	}
}

// TestCGCastFullHeterogeneous runs full fidelity with skewed overlaps,
// covering dedicated-channel fixing when pairs share different
// channel counts.
func TestCGCastFullHeterogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-fidelity test")
	}
	g := graph.Path(4)
	a, err := chanassign.Heterogeneous(g, 6, 2, 4, 0.5, rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 4, C: 6, K: k, KMax: kmax, Delta: g.MaxDegree()}
	res, err := RunCGCast(nw, BroadcastConfig{
		Params: p,
		D:      g.Diameter(),
		Source: 0,
		Mode:   ExchangeFull,
		Seed:   26,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, inf := range res.Informed {
		if !inf {
			t.Errorf("node %d uninformed", u)
		}
	}
	if res.EdgesColored != g.M() {
		t.Errorf("colored %d of %d edges", res.EdgesColored, g.M())
	}
}
