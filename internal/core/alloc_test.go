package core

import (
	"context"
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
// ceiling, and a coloring phase allocates nothing — its streams are
// rewritten in place and its tables reused — so no per-edge or
// per-phase state, map or buffer can creep back.
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
	// 6 allocations when the setup pool hands back its tables, 16 when
	// it does not (the race detector drops pooled entries at random):
	// the edge index, the per-edge tables, the plates, the two-hop
	// view, the schedule and the session. A coloring state and plate
	// per edge made it 1,198.
	const ceiling = 20
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("setup made %.0f allocations, ceiling %d", allocs, ceiling)
	}
	// The coloring stage of a setup whose tables are sized: one phase,
	// in which every edge is still active, and the full budget, whose
	// early phases all have edges left to color.
	seek, err := cseekSchedule(&p)
	if err != nil {
		t.Fatal(err)
	}
	d := &cgcastDriver{ctx: context.Background(), nw: nw, p: p, mode: ExchangeAbstract, n: n, seek: seek}
	d.indexEdges()
	if err := d.establishEdges(); err != nil {
		t.Fatal(err)
	}
	full := scaledSteps(p.Tuning.ColoringPhases, 1, p.LgN())
	for _, phases := range []int{1, full} {
		if got := testing.AllocsPerRun(3, func() {
			if err := d.colorEdges(phases); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%d coloring phases made %.0f allocations, want 0", phases, got)
		}
	}
}

// TestCGCastRunAllocs is the allocation regression for a whole
// abstract-mode CGCAST run: RunCGCast on a unit-disk instance — setup,
// one dissemination and the result — stays under one fixed ceiling at
// n = 48 and at n = 96, so no per-node or per-edge allocation can come
// back. It is 27 with the pools' entries reused and 42 without. A
// coloring state per edge, a stream per simulator per phase and a
// machine per node made it 1,415 at n = 48 and 4,828 at n = 96.
func TestCGCastRunAllocs(t *testing.T) {
	const ceiling = 52
	for _, n := range []int{48, 96} {
		g, err := graph.UnitDisk(n, 0.35, rng.New(48))
		if err != nil {
			t.Fatal(err)
		}
		a, err := chanassign.SharedCore(n, 6, 2, rng.New(49))
		if err != nil {
			t.Fatal(err)
		}
		nw, p, d := buildBroadcastNet(t, g, a)
		var res *BroadcastResult
		allocs := testing.AllocsPerRun(1, func() {
			res, err = RunCGCast(nw, BroadcastConfig{Params: p, D: d, Source: 0, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.0f allocations, %d edges colored, all informed %v", n, allocs, res.EdgesColored, res.AllInformed)
		if allocs > ceiling {
			t.Errorf("n=%d: one run made %.0f allocations, ceiling %d", n, allocs, ceiling)
		}
	}
}
