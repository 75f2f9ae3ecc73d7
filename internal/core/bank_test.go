package core

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// This file pins the core banks' byte-identity contract: every
// primitive's RangeProtocol bank must produce outcomes byte-identical
// to the same machines on per-node dispatch — same seed, same stats,
// same per-node end state — across clear, jammed and dynamic (churn +
// edge-flap) networks. The banks call the protocols' own Act and
// Observe, so this should hold by construction; the suite makes the
// construction argument enforceable.

// bankParityJammer jams even global channels on every third slot.
type bankParityJammer struct{}

func (bankParityJammer) Jammed(slot int64, ch int32) bool {
	return ch%2 == 0 && slot%3 == 0
}

// bankChurnFeed is a deterministic scripted feed mixing node churn and
// edge flapping, fresh per run.
type bankChurnFeed struct {
	r     *rng.Source
	n     int
	edges []graph.Edge
}

func newBankChurnFeed(g *graph.Graph, seed uint64) *bankChurnFeed {
	return &bankChurnFeed{r: rng.New(seed), n: g.N(), edges: g.Edges()}
}

func (f *bankChurnFeed) Step(_ int64, mut radio.TopologyMutator) {
	u := f.r.Intn(f.n)
	if f.r.Bernoulli(0.05) {
		mut.SetNodeUp(u, !mut.NodeUp(u))
	}
	e := f.edges[f.r.Intn(len(f.edges))]
	if f.r.Bernoulli(0.1) {
		if mut.HasEdge(int(e.U), int(e.V)) {
			mut.RemoveEdge(int(e.U), int(e.V))
		} else {
			mut.AddEdge(int(e.U), int(e.V))
		}
	}
}

// perNodeDissem is a dissemination machine without its bank: its
// RangeBank shadows the machine's, so the engine dispatches per node.
type perNodeDissem struct{ *dissemProto }

func (perNodeDissem) RangeBank() (radio.RangeProtocol, int) { return nil, 0 }

// TestCoreBanksMatchPerNodeDispatch runs every primitive's protocol
// stack twice per scenario — bank attached (range dispatch) and not
// (per-node dispatch) — and requires identical engine stats and
// identical per-node outcomes.
func TestCoreBanksMatchPerNodeDispatch(t *testing.T) {
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

	// A stack bundles a fresh protocol set with its bank-attachment
	// hook and an outcome fingerprint extractor.
	type stack struct {
		protos  []radio.Protocol
		slots   int64
		attach  func()
		outcome func() string
	}
	discoveryStack := func(t *testing.T, mk func(Env) (Discoverer, error)) stack {
		t.Helper()
		master := rng.New(seed + 2)
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
		attach := func() {
			seeks := make([]*CSeek, n)
			for u, dv := range ds {
				seeks[u] = dv.(*CSeek)
			}
			NewSeekBank(seeks)
		}
		return stack{protos: protos, slots: ds[0].TotalSlots(), attach: attach, outcome: func() string {
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
		build func(t *testing.T, nw *radio.Network) stack
	}{
		{"cseek", func(t *testing.T, _ *radio.Network) stack {
			return discoveryStack(t, func(env Env) (Discoverer, error) { return NewCSeek(p, env) })
		}},
		{"ckseek", func(t *testing.T, _ *radio.Network) stack {
			return discoveryStack(t, func(env Env) (Discoverer, error) { return NewCKSeek(p, env, k, p.Delta) })
		}},
		{"cgcast-dissem", func(t *testing.T, nw *radio.Network) stack {
			session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: seed + 3})
			if err != nil {
				t.Fatal(err)
			}
			run := newDissemRun(p, session.schedule, d, 0, "m", seed+4)
			// Dissemination machines are always banked; the per-node
			// run hides the bank behind perNodeDissem views.
			protos := make([]radio.Protocol, n)
			for u := range protos {
				protos[u] = perNodeDissem{&run.nodes[u]}
			}
			return stack{protos: protos, slots: run.total, attach: func() { copy(protos, run.protos) }, outcome: func() string {
				out := ""
				for u := range run.nodes {
					out += fmt.Sprintf("%d:%v@%d;", u, run.nodes[u].informed, run.nodes[u].slot)
				}
				return out
			}}
		}},
		{"flood", func(t *testing.T, _ *radio.Network) stack {
			master := rng.New(seed + 5)
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
			return stack{protos: protos, slots: fls[0].TotalSlots(), attach: func() { NewFloodBank(fls) }, outcome: func() string {
				out := ""
				for u, fl := range fls {
					out += fmt.Sprintf("%d:%v@%d;", u, fl.Informed(), fl.InformedAt())
				}
				return out
			}}
		}},
	}

	scenarios := []struct {
		name string
		jam  radio.Jammer
		dyn  bool
	}{
		{"clear", nil, false},
		{"jammed", bankParityJammer{}, false},
		{"dynamic", nil, true},
	}

	for _, sc := range scenarios {
		for _, prim := range primitives {
			t.Run(sc.name+"/"+prim.name, func(t *testing.T) {
				run := func(banked bool) (radio.Stats, string) {
					nw := &radio.Network{Graph: g, Assign: a, Jammer: sc.jam}
					if sc.dyn {
						nw.Topology = newBankChurnFeed(g, 0xC0DE)
					}
					st := prim.build(t, nw)
					if banked {
						st.attach()
					}
					e, err := radio.NewEngine(nw, st.protos)
					if err != nil {
						t.Fatal(err)
					}
					if e.RangeDispatch() != banked {
						t.Fatalf("banked=%v but RangeDispatch=%v", banked, e.RangeDispatch())
					}
					budget := st.slots + 1
					if budget > 30000 {
						budget = 30000
					}
					stats := e.Run(budget)
					return stats, st.outcome()
				}
				wantStats, wantOutcome := run(false)
				if sc.dyn && wantStats.DownSlots == 0 {
					t.Fatalf("dynamic scenario produced no down-node slots: %+v", wantStats)
				}
				gotStats, gotOutcome := run(true)
				if gotStats != wantStats {
					t.Errorf("stats:\n range    %+v\n per-node %+v", gotStats, wantStats)
				}
				if gotOutcome != wantOutcome {
					t.Errorf("outcome diverged:\n range    %s\n per-node %s", gotOutcome, wantOutcome)
				}
			})
		}
	}
}
