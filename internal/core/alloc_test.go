package core

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// TestCSeekEngineZeroAllocsSteadyState is the end-to-end allocation
// regression for the CSEEK hot path: a real discovery workload stepped
// by radio.Engine.Run must allocate nothing per slot once warmed up —
// in part one (COUNT sampling) and in part two (density-guided
// back-off) alike, on per-node and range dispatch (the facade's
// machines come banked, so the range path is the production path).
// Construction allocates every table and count a machine needs, and a
// table only grows past Δ identities, which a static graph never
// delivers; the warm-up covers the engine's own first slots.
func TestCSeekEngineZeroAllocsSteadyState(t *testing.T) {
	for _, banked := range []bool{false, true} {
		name := "per-node"
		if banked {
			name = "range"
		}
		t.Run(name, func(t *testing.T) { testCSeekZeroAllocs(t, banked) })
	}
}

func testCSeekZeroAllocs(t *testing.T, banked bool) {
	// n/c/seed are chosen so every pair discovers well inside part one
	// (asserted below); the stretched P2Steps multiplier lengthens part
	// two enough to host its own measurement window.
	const n, c = 4, 2
	g := graph.Complete(n)
	a, err := chanassign.Identical(n, c, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, C: c, K: c, KMax: c, Delta: n - 1, Tuning: Tuning{P2Steps: 30}}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	master := rng.New(32)
	seeks := make([]*CSeek, n)
	protos := make([]radio.Protocol, n)
	for u := 0; u < n; u++ {
		s, err := NewCSeek(p, Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))})
		if err != nil {
			t.Fatal(err)
		}
		seeks[u] = s
		protos[u] = s
	}
	if banked {
		NewSeekBank(seeks)
	}
	e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if e.RangeDispatch() != banked {
		t.Fatalf("banked=%v but RangeDispatch=%v", banked, e.RangeDispatch())
	}
	p1 := seeks[0].PartOneSlots()
	total := seeks[0].TotalSlots()
	if p1 < 4000 || total-p1 < 400 {
		t.Fatalf("schedule too short for the test layout: p1=%d total=%d", p1, total)
	}

	// Part-one steady state: warm up past the (seed-deterministic)
	// last discovery, so every node's table is full when the
	// measurement starts.
	target := p1 - 1600
	e.Run(target)
	for u, s := range seeks {
		if s.DiscoveredCount() != n-1 {
			t.Fatalf("node %d discovered %d/%d neighbors after warm-up", u, s.DiscoveredCount(), n-1)
		}
	}
	step := func() {
		target += 100
		e.Run(target)
	}
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("part-one steady state allocates %.2f/100 slots, want 0", avg)
	}

	// Part-two steady state: cross into part two, then measure.
	target = p1 + 60
	e.Run(target)
	stepP2 := func() {
		target += 40
		e.Run(target)
	}
	if avg := testing.AllocsPerRun(5, stepP2); avg != 0 {
		t.Errorf("part-two steady state allocates %.2f/40 slots, want 0", avg)
	}
	if e.Stats().Deliveries == 0 {
		t.Fatal("workload produced no deliveries; test exercises nothing")
	}
}

// TestCGCastSetupAllocs guards the flat CGCAST setup: abstract-mode
// PrepareCGCast on a unit-disk instance stays under a fixed allocation
// ceiling, and quadrupling the coloring phases adds at most n
// allocations per extra phase — one rng stream per node — so no
// per-phase map or buffer can creep back.
func TestCGCastSetupAllocs(t *testing.T) {
	const n = 48
	g, err := graph.UnitDisk(n, 0.35, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(n, 6, 2, rng.New(49))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, _ := buildBroadcastNet(t, g, a)
	prepare := func(p Params) (allocs float64, phases int) {
		allocs = testing.AllocsPerRun(5, func() {
			s, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			phases = s.ColoringPhases()
		})
		return allocs, phases
	}
	// 1,198 allocations here, nearly all of them one coloring state per
	// edge; the ceiling leaves headroom but not a per-phase buffer.
	const ceiling = 1600
	base, phases := prepare(p)
	if base > ceiling {
		t.Errorf("setup made %.0f allocations over %d phases, ceiling %d", base, phases, ceiling)
	}
	long := p
	long.Tuning.ColoringPhases *= 4
	more, longPhases := prepare(long)
	if longPhases <= phases {
		t.Fatalf("quadrupled tuning ran %d phases, base %d", longPhases, phases)
	}
	if perPhase := (more - base) / float64(longPhases-phases); perPhase > n {
		t.Errorf("each extra coloring phase made %.1f allocations (%.0f over %d phases vs %.0f over %d), want <= %d",
			perPhase, more, longPhases, base, phases, n)
	}
}
