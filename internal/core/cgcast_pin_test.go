package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// pinnedSetup is one CGCAST setup instance whose realized coloring is
// pinned by TestCGCastSetupPinned.
type pinnedSetup struct {
	name string
	mode BroadcastMode
	seed uint64
	// build returns the network and its model parameters.
	build func(t *testing.T) (*radio.Network, Params)
	want  string
}

// pinNet assembles a static network with parameters derived from the
// realized overlaps, as buildBroadcastNet does.
func pinNet(t *testing.T, g *graph.Graph, a *chanassign.Assignment, err error) (*radio.Network, Params) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	nw, p, _ := buildBroadcastNet(t, g, a)
	return nw, p
}

// fromSetsGrid is a 3×3 grid whose explicit channel sets leave the
// pairs (0,1) and (1,4) without a shared channel, so both edges take
// the drop path.
func fromSetsGrid(t *testing.T) (*radio.Network, Params) {
	t.Helper()
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{{0, 1}, {2, 3}, {1, 2}, {0, 1}, {0, 1}, {1, 2}, {0, 3}, {0, 1}, {1, 3}}
	a, err := chanassign.FromSets(4, sets, rng.New(60))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: g.N(), C: 2, K: 1, KMax: 2, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	return &radio.Network{Graph: g, Assign: a}, p
}

var pinnedSetups = []pinnedSetup{
	{name: "abstract/path8", want: "slots=517776 phases=16 colored=7/7 dropped=0 valid=true digest=8a7c7a7e4228178e",
		mode: ExchangeAbstract, seed: 42, build: func(t *testing.T) (*radio.Network, Params) {
			a, err := chanassign.SharedCore(8, 3, 2, rng.New(1))
			return pinNet(t, graph.Path(8), a, err)
		}},
	{name: "abstract/star10", want: "slots=2373408 phases=16 colored=9/9 dropped=0 valid=true digest=b2875d0fc49e86ef",
		mode: ExchangeAbstract, seed: 44, build: func(t *testing.T) (*radio.Network, Params) {
			a, err := chanassign.SharedCore(10, 3, 1, rng.New(3))
			return pinNet(t, graph.Star(10), a, err)
		}},
	{name: "abstract/clusterchain4x4", want: "slots=1247808 phases=16 colored=27/27 dropped=0 valid=true digest=f09a5f5188d783c8",
		mode: ExchangeAbstract, seed: 43, build: func(t *testing.T) (*radio.Network, Params) {
			g, err := graph.ClusterChain(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.SharedCore(g.N(), 4, 2, rng.New(2))
			return pinNet(t, g, a, err)
		}},
	{name: "abstract/gnp14-heterogeneous", want: "slots=6649080 phases=16 colored=21/21 dropped=0 valid=true digest=e6a9149519e61fc8",
		mode: ExchangeAbstract, seed: 45, build: func(t *testing.T) (*radio.Network, Params) {
			g, err := graph.GNP(14, 0.3, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.Heterogeneous(g, 8, 2, 5, 0.4, rng.New(6))
			return pinNet(t, g, a, err)
		}},
	{name: "abstract/unitdisk48", want: "slots=12727044 phases=24 colored=323/323 dropped=0 valid=true digest=0b9ef101bf0bd044",
		mode: ExchangeAbstract, seed: 1, build: func(t *testing.T) (*radio.Network, Params) {
			g, err := graph.UnitDisk(48, 0.35, rng.New(48))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.SharedCore(48, 6, 2, rng.New(49))
			return pinNet(t, g, a, err)
		}},
	{name: "abstract/fromsets-grid3x3", want: "slots=643200 phases=16 colored=10/10 dropped=2 valid=true digest=c5630b3a33fa314a",
		mode: ExchangeAbstract, seed: 61, build: fromSetsGrid},
	{name: "full/path4", want: "slots=517776 phases=16 colored=3/3 dropped=0 valid=true digest=699ae38f174873ab",
		mode: ExchangeFull, seed: 46, build: func(t *testing.T) (*radio.Network, Params) {
			a, err := chanassign.SharedCore(4, 3, 2, rng.New(7))
			return pinNet(t, graph.Path(4), a, err)
		}},
	{name: "full/star5", want: "slots=784704 phases=16 colored=4/4 dropped=0 valid=true digest=49a48b8426310ec2",
		mode: ExchangeFull, seed: 24, build: func(t *testing.T) (*radio.Network, Params) {
			a, err := chanassign.SharedCore(5, 3, 2, rng.New(23))
			return pinNet(t, graph.Star(5), a, err)
		}},
	{name: "full/fromsets-grid3x3", want: "slots=643200 phases=16 colored=10/10 dropped=2 valid=true digest=6ee8a2ab8d64581f",
		mode: ExchangeFull, seed: 61, build: fromSetsGrid},
	// A reactive adversary jamming the busiest channel makes CSEEK miss
	// pairs, so exchanges deliver partial views.
	{name: "full/path6-jammed", want: "slots=517776 phases=16 colored=4/4 dropped=1 valid=true digest=775d6e59708136c5",
		mode: ExchangeFull, seed: 62, build: func(t *testing.T) (*radio.Network, Params) {
			a, err := chanassign.SharedCore(6, 3, 2, rng.New(63))
			nw, p := pinNet(t, graph.Path(6), a, err)
			nw.Jammer = spectrum.NewReactiveAdversary(1)
			return nw, p
		}},
	// Churn and link flapping take nodes and base edges away
	// mid-exchange.
	{name: "full/gnp10-churn-flap", want: "slots=784704 phases=16 colored=12/12 dropped=0 valid=true digest=380caf4a2b5c8f3d",
		mode: ExchangeFull, seed: 64, build: func(t *testing.T) (*radio.Network, Params) {
			g, err := graph.GNP(10, 0.4, rng.New(65))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.SharedCore(10, 3, 2, rng.New(66))
			nw, p := pinNet(t, g, a, err)
			churn, err := dynamics.NewChurn(10, 0.002, 0.004, 67)
			if err != nil {
				t.Fatal(err)
			}
			flap, err := dynamics.NewEdgeFlap(g.Edges(), 0.002, 0.004, 68)
			if err != nil {
				t.Fatal(err)
			}
			nw.Topology = dynamics.Compose(churn, flap)
			return nw, p
		}},
	// Shortened CSEEK schedules miss pairs in the coloring exchanges,
	// so simulators decide on partial views (the realized coloring is
	// improper).
	{name: "full/gnp12-short-cseek", want: "slots=183915 phases=16 colored=11/11 dropped=16 valid=false digest=22e95b142fb41534",
		mode: ExchangeFull, seed: 64, build: func(t *testing.T) (*radio.Network, Params) {
			g, err := graph.GNP(12, 0.5, rng.New(65))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.SharedCore(12, 3, 2, rng.New(66))
			if err != nil {
				t.Fatal(err)
			}
			k, kmax := a.OverlapRange(g)
			p := Params{N: 12, C: 3, K: k, KMax: kmax, Delta: g.MaxDegree(), Tuning: Tuning{P1Steps: 0.7, P2Steps: 0.7}}
			if err := p.Normalize(); err != nil {
				t.Fatal(err)
			}
			return &radio.Network{Graph: g, Assign: a}, p
		}},
}

// setupDigest summarizes a prepared session: the slot cost, phase
// count and edge tallies in clear, and an FNV-64a digest over every
// node's color → local-channel schedule and the setup engine counters.
func setupDigest(s *BroadcastSession) string {
	var res BroadcastResult
	s.fillColoringStats(&res)
	h := fnv.New64a()
	for u, sched := range s.schedules {
		fmt.Fprintf(h, "%d:%v;", u, sched)
	}
	fmt.Fprintf(h, "%+v", s.setupRadio)
	return fmt.Sprintf("slots=%d phases=%d colored=%d/%d dropped=%d valid=%v digest=%016x",
		s.SetupSlots(), s.ColoringPhases(), s.EdgesColored(), res.EdgesColored, res.EdgesDropped, res.ColoringValid, h.Sum64())
}

// TestCGCastSetupPinned pins the realized CGCAST setup — every node's
// color schedule, the edge tallies and the setup slot and engine
// counters — on abstract and full-fidelity instances, including
// dropped pairs, jammed exchanges and a dynamic topology. The wanted
// strings were recorded from the original map-keyed exchange
// implementation: a change to one is a change of behaviour, not a
// refresh.
func TestCGCastSetupPinned(t *testing.T) {
	for _, tc := range pinnedSetups {
		t.Run(tc.name, func(t *testing.T) {
			nw, p := tc.build(t)
			s, err := PrepareCGCast(nw, SessionConfig{Params: p, Mode: tc.mode, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if got := setupDigest(s); got != tc.want {
				t.Errorf("setup changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
