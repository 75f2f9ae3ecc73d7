package core

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// TestQuickCSeekScheduleInvariants fuzzes model parameters and checks
// the schedule arithmetic: part one plus part two equals the total,
// part one is a whole number of COUNT executions, and part two a whole
// number of lgΔ-slot steps.
func TestQuickCSeekScheduleInvariants(t *testing.T) {
	f := func(seed uint64, cRaw, kRaw, dRaw uint8) bool {
		c := int(cRaw%12) + 1
		k := int(kRaw)%c + 1
		delta := int(dRaw%20) + 1
		n := delta + 2
		p := Params{N: n, C: c, K: k, KMax: k, Delta: delta}
		if err := p.Normalize(); err != nil {
			return false
		}
		env := Env{ID: 0, C: c, Rand: rng.New(seed)}
		s, err := NewCSeek(p, env)
		if err != nil {
			return false
		}
		if s.PartOneSlots()+s.PartTwoSlots() != s.TotalSlots() {
			return false
		}
		countLen := int64(p.countSchedule().TotalSlots())
		if s.PartOneSlots()%countLen != 0 {
			return false
		}
		return s.PartTwoSlots()%int64(p.LgDelta()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCKSeekNeverLongerThanFallback: with Δ_k̂ ≤ Δ, CKSEEK's
// schedule is monotone in Δ_k̂ — using a good estimate never costs
// more than the Δ fallback.
func TestQuickCKSeekMonotoneInDeltaKhat(t *testing.T) {
	f := func(seed uint64, dkRaw uint8) bool {
		p := Params{N: 64, C: 8, K: 2, KMax: 6, Delta: 10}
		env := Env{ID: 0, C: 8, Rand: rng.New(seed)}
		dk := int(dkRaw % 11) // 0..10
		withEstimate, err := NewCKSeek(p, env, 4, dk)
		if err != nil {
			return false
		}
		fallback, err := NewCKSeek(p, env, 4, p.Delta)
		if err != nil {
			return false
		}
		return withEstimate.TotalSlots() <= fallback.TotalSlots()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCSeekCountsMatchSum: the per-channel counts always sum to the
// internal total used for weighted listening.
func TestCSeekCountsMatchSum(t *testing.T) {
	g := graph.Star(9)
	a, err := chanassign.SharedCore(9, 3, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	for u, d := range ds {
		s := d.(*CSeek)
		var sum int64
		for _, c := range s.Counts() {
			sum += c
		}
		if sum != s.countSum {
			t.Errorf("node %d: counts sum %d != countSum %d", u, sum, s.countSum)
		}
	}
}

// TestSessionDisseminateDeterminism: the same session disseminating
// with the same seed produces identical outcomes; different seeds may
// differ in timing but must still inform everyone.
func TestSessionDisseminateDeterminism(t *testing.T) {
	g := graph.Path(8)
	a, err := chanassign.SharedCore(8, 3, 2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 8, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree()}
	session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()

	r1, err := session.Disseminate(d, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := session.Disseminate(d, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AllInformedAt != r2.AllInformedAt || r1.ScheduleSlots != r2.ScheduleSlots {
		t.Errorf("same-seed disseminations differ: %+v vs %+v", r1, r2)
	}
	r3, err := session.Disseminate(d, 7, 99)
	if err != nil {
		t.Fatal(err)
	}
	for u, inf := range r3.Informed {
		if !inf {
			t.Errorf("node %d uninformed from source 7", u)
		}
	}
}

// TestSessionAccessors sanity-checks the exported session state.
func TestSessionAccessors(t *testing.T) {
	g := graph.Path(6)
	a, err := chanassign.SharedCore(6, 3, 2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	k, kmax := a.OverlapRange(g)
	p := Params{N: 6, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree()}
	session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if session.SetupSlots() <= 0 {
		t.Errorf("SetupSlots = %d", session.SetupSlots())
	}
	if session.ColoringPhases() < 1 {
		t.Errorf("ColoringPhases = %d", session.ColoringPhases())
	}
	if session.EdgesColored() != g.M() {
		t.Errorf("EdgesColored = %d, want %d", session.EdgesColored(), g.M())
	}
	if _, err := session.Disseminate(0, 0, 1); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := session.Disseminate(3, 99, 1); err == nil {
		t.Error("bad source accepted")
	}
}

// checkBroadcastOutcome asserts the two ways a broadcast result states
// completion agree with its per-node record: AllInformed holds iff
// every Informed[u] does, and AllInformedAt is a slot (≥ 0) iff
// AllInformed holds.
func checkBroadcastOutcome(t *testing.T, informed []bool, all bool, at int64) {
	t.Helper()
	every := true
	for _, ok := range informed {
		every = every && ok
	}
	if all != every {
		t.Errorf("AllInformed = %v, but every node informed = %v (%v)", all, every, informed)
	}
	if (at >= 0) != all {
		t.Errorf("AllInformedAt = %d with AllInformed = %v", at, all)
	}
}

// TestBroadcastOutcomeInvariants checks checkBroadcastOutcome on
// CGCAST (abstract and full fidelity) and on flooding, over a static
// network, Poisson primary users and churn, at several seeds. Churn
// leaves some runs incomplete, so both sides of each equivalence are
// exercised.
func TestBroadcastOutcomeInvariants(t *testing.T) {
	g, err := graph.GNP(8, 0.45, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(8, 3, 2, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	networks := []struct {
		name  string
		build func(t *testing.T) *radio.Network
	}{
		{"static", func(*testing.T) *radio.Network { return &radio.Network{Graph: g, Assign: a} }},
		{"poisson", func(t *testing.T) *radio.Network {
			j, err := spectrum.NewPoisson(a.Universe, 1<<22, 0.01, 20, spectrum.HoldGeometric, 83)
			if err != nil {
				t.Fatal(err)
			}
			return &radio.Network{Graph: g, Assign: a, Jammer: j}
		}},
		{"churn", func(t *testing.T) *radio.Network {
			churn, err := dynamics.NewChurn(g.N(), 0.001, 0.002, 84)
			if err != nil {
				t.Fatal(err)
			}
			return &radio.Network{Graph: g, Assign: a, Topology: churn}
		}},
	}
	_, p, d := buildBroadcastNet(t, g, a)
	// Full fidelity simulates every setup exchange, so it runs one seed,
	// and none under -short.
	modes := []struct {
		name  string
		mode  BroadcastMode
		seeds uint64
	}{{"abstract", ExchangeAbstract, 3}, {"full", ExchangeFull, 1}}
	if testing.Short() {
		modes = modes[:1]
	}
	completed := map[bool]int{}
	for _, nc := range networks {
		for _, mc := range modes {
			t.Run(fmt.Sprintf("cgcast/%s/%s", nc.name, mc.name), func(t *testing.T) {
				for seed := uint64(1); seed <= mc.seeds; seed++ {
					res, err := RunCGCast(nc.build(t), BroadcastConfig{Params: p, D: d, Source: 0, Mode: mc.mode, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					checkBroadcastOutcome(t, res.Informed, res.AllInformed, res.AllInformedAt)
					completed[res.AllInformed]++
				}
			})
		}
		t.Run("flood/"+nc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				res, err := RunFloodCtx(context.Background(), nc.build(t), p, d, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				checkBroadcastOutcome(t, res.Informed, res.AllInformed, res.AllInformedAt)
				completed[res.AllInformed]++
			}
		})
	}
	if completed[true] == 0 || completed[false] == 0 {
		t.Errorf("runs completed %d times and failed %d times; both outcomes must occur", completed[true], completed[false])
	}
}
