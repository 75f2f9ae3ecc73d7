package core

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// TestCrossEngineEquivalenceUnderJammers is the cross-engine
// determinism lockdown for the spectrum subsystem: for every jammer
// family, three runs with distinct seeds stepped together as the
// replicas of one radio.BatchEngine must each produce exactly what
// they produce alone on a radio.Engine — identical Stats and identical
// per-node protocol outcomes — table-driven across all four
// primitives' protocol stacks (CSEEK, CKSEEK, CGCAST dissemination,
// flooding). Stateful jammers (the reactive adversary) are
// re-instantiated per run via spectrum.RunScoped, exactly as the
// facade does per run.
func TestCrossEngineEquivalenceUnderJammers(t *testing.T) {
	const n, c, k, seed = 10, 4, 2, 5
	g, err := graph.GNP(n, 0.4, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(n, c, k, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: n, C: c, K: k, KMax: k, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	const horizon = 1 << 18

	markov, err := spectrum.NewMarkov(a.Universe, horizon, 0.05, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := spectrum.NewPoisson(a.Universe, horizon, 0.01, 12, spectrum.HoldGeometric, 7)
	if err != nil {
		t.Fatal(err)
	}
	jammers := []struct {
		name string
		j    spectrum.Jammer
	}{
		{"markov", markov},
		{"poisson", poisson},
		{"adversary", spectrum.NewReactiveAdversary(2)},
		{"compose", spectrum.Compose(markov, spectrum.NewReactiveAdversary(1))},
	}

	// Each primitive builds a fresh protocol stack and returns a
	// per-node outcome fingerprint extractor.
	type stack struct {
		protos  []radio.Protocol
		slots   int64
		outcome func() string
	}
	discoveryStack := func(t *testing.T, off uint64, mk func(Env) (Discoverer, error)) stack {
		t.Helper()
		master := rng.New(seed + 2 + off)
		ds := make([]Discoverer, n)
		protos := make([]radio.Protocol, n)
		for u := 0; u < n; u++ {
			dv, err := mk(Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))})
			if err != nil {
				t.Fatal(err)
			}
			ds[u] = dv
			protos[u] = dv
		}
		return stack{protos: protos, slots: ds[0].TotalSlots(), outcome: func() string {
			out := ""
			for u := 0; u < n; u++ {
				ids, slots := ds[u].Heard()
				out += fmt.Sprintf("%d:%v@%v;", u, ids, slots)
			}
			return out
		}}
	}
	primitives := []struct {
		name  string
		build func(t *testing.T, nw *radio.Network, off uint64) stack
	}{
		{"cseek", func(t *testing.T, _ *radio.Network, off uint64) stack {
			return discoveryStack(t, off, func(env Env) (Discoverer, error) { return NewCSeek(p, env) })
		}},
		{"ckseek", func(t *testing.T, _ *radio.Network, off uint64) stack {
			return discoveryStack(t, off, func(env Env) (Discoverer, error) { return NewCKSeek(p, env, k, p.Delta) })
		}},
		{"cgcast-dissem", func(t *testing.T, nw *radio.Network, off uint64) stack {
			// Setup runs in abstract mode (no engine involved), so only
			// the dissemination stage exercises the engines under test —
			// built the same way DisseminateCtx builds it.
			session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: seed + 3 + off})
			if err != nil {
				t.Fatal(err)
			}
			run := newDissemRun(p, session.schedule, d, 0, "m", seed+4+off)
			return stack{protos: run.protos, slots: run.total, outcome: func() string {
				out := ""
				for u := range run.nodes {
					out += fmt.Sprintf("%d:%v@%d;", u, run.nodes[u].informed, run.nodes[u].slot)
				}
				return out
			}}
		}},
		{"flood", func(t *testing.T, _ *radio.Network, off uint64) stack {
			master := rng.New(seed + 5 + off)
			fls := make([]*Flood, n)
			protos := make([]radio.Protocol, n)
			for u := 0; u < n; u++ {
				fl, err := NewFlood(p, Env{ID: radio.NodeID(u), C: c, Rand: master.Split(uint64(u))}, d, u == 0, "m")
				if err != nil {
					t.Fatal(err)
				}
				fls[u] = fl
				protos[u] = fl
			}
			return stack{protos: protos, slots: fls[0].TotalSlots(), outcome: func() string {
				out := ""
				for u, fl := range fls {
					out += fmt.Sprintf("%d:%v@%d;", u, fl.Informed(), fl.InformedAt())
				}
				return out
			}}
		}},
	}

	const replicas = 3
	for _, jc := range jammers {
		for _, prim := range primitives {
			t.Run(jc.name+"/"+prim.name, func(t *testing.T) {
				network := func() *radio.Network {
					j := jc.j
					if rs, ok := j.(spectrum.RunScoped); ok {
						j = rs.NewRun()
					}
					return &radio.Network{Graph: g, Assign: a, Jammer: j}
				}
				reps := make([]radio.Replica, replicas)
				batch := make([]stack, replicas)
				for r := range reps {
					nw := network()
					batch[r] = prim.build(t, nw, uint64(r))
					reps[r] = radio.Replica{Protocols: batch[r].protos, Jammer: nw.Jammer}
				}
				be, err := radio.NewBatchEngine(g, a, reps)
				if err != nil {
					t.Fatal(err)
				}
				// Equivalence needs a prefix, not a full schedule.
				budget := min(batch[0].slots+1, 30000)
				batchStats := be.Run(budget)
				for r := range reps {
					nw := network()
					st := prim.build(t, nw, uint64(r))
					e, err := radio.NewEngine(nw, st.protos)
					if err != nil {
						t.Fatal(err)
					}
					if want := e.Run(budget); batchStats[r] != want {
						t.Errorf("replica %d stats = %+v, solo %+v", r, batchStats[r], want)
					}
					if got, want := batch[r].outcome(), st.outcome(); got != want {
						t.Errorf("replica %d outcome diverged:\n got %s\nwant %s", r, got, want)
					}
				}
			})
		}
	}
}
