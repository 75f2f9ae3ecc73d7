package radio

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// scriptFeed is a deterministic scripted TopologyFeed for engine
// tests: per-slot edge and up/down mutations.
type scriptFeed struct {
	steps func(slot int64, mut TopologyMutator)
}

func (f *scriptFeed) Step(slot int64, mut TopologyMutator) { f.steps(slot, mut) }

// pairProto broadcasts from node 0 every slot on channel 0 and
// listens on every other node, counting per-node deliveries.
type pairProto struct {
	id    int
	heard int64
}

func (p *pairProto) Act(_ int64) Action {
	if p.id == 0 {
		return Action{Kind: Broadcast, Ch: 0}
	}
	return Action{Kind: Listen, Ch: 0}
}

func (p *pairProto) Observe(_ int64, d Delivery) {
	if d.From >= 0 {
		p.heard++
	}
}

func (p *pairProto) Done() bool { return false }

func topoNetwork(t *testing.T, feed TopologyFeed) (*Network, []*pairProto, []Protocol) {
	t.Helper()
	g := graph.Path(3)
	a, err := chanassign.Identical(3, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pps := []*pairProto{{id: 0}, {id: 1}, {id: 2}}
	protos := []Protocol{pps[0], pps[1], pps[2]}
	return &Network{Graph: g, Assign: a, Topology: feed}, pps, protos
}

// TestTopologyFeedEdgeRemoval: removing the only edge to the
// broadcaster silences the listener from that slot on, and the
// partition-loss counter accounts every silenced delivery.
func TestTopologyFeedEdgeRemoval(t *testing.T) {
	const cut = 10
	feed := &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		if slot == cut {
			if !mut.RemoveEdge(0, 1) {
				t.Fatal("RemoveEdge(0,1) was a no-op")
			}
		}
	}}
	nw, pps, protos := topoNetwork(t, feed)
	e, err := NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(30)
	if pps[1].heard != cut {
		t.Errorf("node 1 heard %d deliveries, want %d (edge cut at slot %d)", pps[1].heard, cut, cut)
	}
	if st.EdgeRemoves != 1 || st.EdgeAdds != 0 {
		t.Errorf("edge counters = +%d/-%d, want +0/-1", st.EdgeAdds, st.EdgeRemoves)
	}
	// Node 1 keeps listening on a now-silent channel; the base
	// topology would have delivered each of those 20 slots.
	if st.PartitionLosses != 30-cut {
		t.Errorf("PartitionLosses = %d, want %d", st.PartitionLosses, 30-cut)
	}
	if nw.Graph.M() != 2 {
		t.Errorf("base graph mutated: M = %d, want 2", nw.Graph.M())
	}
}

// TestTopologyFeedEdgeAddition: an added edge starts delivering, and
// a delivery from a non-base neighbor is not a partition loss.
func TestTopologyFeedEdgeAddition(t *testing.T) {
	const join = 5
	feed := &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		if slot == join {
			if !mut.AddEdge(0, 2) {
				t.Fatal("AddEdge(0,2) was a no-op")
			}
		}
	}}
	nw, pps, protos := topoNetwork(t, feed)
	e, err := NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(20)
	if pps[2].heard != 20-join {
		t.Errorf("node 2 heard %d deliveries, want %d (edge added at slot %d)", pps[2].heard, 20-join, join)
	}
	if st.EdgeAdds != 1 {
		t.Errorf("EdgeAdds = %d, want 1", st.EdgeAdds)
	}
	if st.PartitionLosses != 0 {
		t.Errorf("PartitionLosses = %d, want 0 — gained edges lose nothing", st.PartitionLosses)
	}
}

// TestTopologyFeedChurn: a down node neither transmits nor observes,
// and resumes its protocol's local clock on rejoin.
type clockProto struct {
	acts, observes int64
}

func (p *clockProto) Act(_ int64) Action {
	p.acts++
	return Action{Kind: Listen, Ch: 0}
}
func (p *clockProto) Observe(_ int64, _ Delivery) { p.observes++ }
func (p *clockProto) Done() bool                  { return false }

func TestTopologyFeedChurn(t *testing.T) {
	feed := &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		switch slot {
		case 4:
			if !mut.SetNodeUp(2, false) {
				t.Fatal("SetNodeUp(2,false) was a no-op")
			}
			if mut.SetNodeUp(2, false) {
				t.Fatal("redundant SetNodeUp reported a change")
			}
		case 9:
			mut.SetNodeUp(2, true)
		}
	}}
	g := graph.Path(3)
	a, err := chanassign.Identical(3, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cp := &clockProto{}
	protos := []Protocol{&clockProto{}, &clockProto{}, cp}
	e, err := NewEngine(&Network{Graph: g, Assign: a, Topology: feed}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(20)
	// Node 2 is down for slots 4..8: 5 slots of its local clock lost.
	if cp.acts != 15 || cp.observes != 15 {
		t.Errorf("down node ran %d acts / %d observes, want 15/15", cp.acts, cp.observes)
	}
	if st.NodeLeaves != 1 || st.NodeJoins != 1 {
		t.Errorf("churn counters joins=%d leaves=%d, want 1/1", st.NodeJoins, st.NodeLeaves)
	}
	if st.DownSlots != 5 {
		t.Errorf("DownSlots = %d, want 5", st.DownSlots)
	}
}

// TestTopologyFeedCrossEngineEquivalence: feeds mixing churn and edge
// flapping (one scripted instance per run) produce identical stats and
// protocol outcomes for every replica of a BatchEngine and its solo
// Engine run — the dynamics analogue of the spectrum cross-engine
// suite.
func TestTopologyFeedCrossEngineEquivalence(t *testing.T) {
	const n, c, slots = 16, 3, 400
	g, err := graph.GNP(n, 0.35, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(n, c, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	sts, err := checkSoloVsBatch(3, slots, func(r int) soloRun {
		master := rng.New(9 + uint64(r))
		protos := make([]Protocol, n)
		seeks := make([]*seekLike, n)
		for u := 0; u < n; u++ {
			seeks[u] = &seekLike{id: NodeID(u), c: c, r: master.Split(uint64(u))}
			protos[u] = seeks[u]
		}
		return soloRun{nw: &Network{Graph: g, Assign: a, Topology: churnFlapFeed(g, 77+uint64(r))}, protos: protos, outcome: func() string {
			fp := ""
			for _, sk := range seeks {
				fp += sk.fingerprint()
			}
			return fp
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range sts {
		if st.EdgeAdds+st.EdgeRemoves == 0 || st.DownSlots == 0 {
			t.Fatalf("replica %d: feed applied no dynamics: %+v", r, st)
		}
	}
}

// statefulFeed mimics a persistent dynamics model across engines: it
// takes node 2 down at its third Step and thereafter reconciles that
// state declaratively into whatever mutator it is handed.
type statefulFeed struct {
	steps int
	down  bool
}

func (f *statefulFeed) Step(_ int64, mut TopologyMutator) {
	f.steps++
	if f.steps == 3 {
		f.down = true
	}
	mut.SetNodeUp(2, !f.down)
}

// TestTopologyResyncNotCounted: when a multi-engine pipeline hands
// one feed a second engine, the feed's first-Step reconciliation
// (re-applying its current state over the fresh clone) must not be
// re-counted as churn — Stats reflect model events, once each.
func TestTopologyResyncNotCounted(t *testing.T) {
	feed := &statefulFeed{}
	g := graph.Path(4)
	a, err := chanassign.Identical(4, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		protos := make([]Protocol, 4)
		for i := range protos {
			protos[i] = &clockProto{}
		}
		e, err := NewEngine(&Network{Graph: g, Assign: a, Topology: feed}, protos)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	st1 := mk().Run(6)
	if st1.NodeLeaves != 1 {
		t.Fatalf("stage 1 NodeLeaves = %d, want 1", st1.NodeLeaves)
	}
	// Stage 2: the feed re-establishes "node 2 down" on the fresh
	// engine — real down-slots, but no new churn event.
	st2 := mk().Run(6)
	if st2.NodeLeaves != 0 || st2.NodeJoins != 0 {
		t.Errorf("stage 2 re-counted the resync: joins=%d leaves=%d, want 0/0", st2.NodeJoins, st2.NodeLeaves)
	}
	if st2.DownSlots != 6 {
		t.Errorf("stage 2 DownSlots = %d, want 6 (node stays down)", st2.DownSlots)
	}
}

// TestStaticEngineSkipsDynamicView guards the static fast path: with
// no TopologyFeed installed, the engine must not build the mutable
// graph clone, must keep resolving against the shared base graph, and
// must keep the FixedSchedule Done-poll skip. (The 0 allocs/slot
// contract itself is enforced by the alloc regression tests.)
func TestStaticEngineSkipsDynamicView(t *testing.T) {
	g, err := graph.GNP(12, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(12, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]Protocol, 12)
	for i := range protos {
		protos[i] = &clockProto{}
	}
	e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if rp := &e.be.reps[0]; rp.dyn != nil || rp.up != nil {
		t.Error("static engine built dynamic-topology state")
	} else if rp.g != g || rp.nbr != e.be.nbr {
		t.Error("static engine does not resolve against the shared graph")
	}
	// And the dynamic counterpart flips every one of those.
	feed := &scriptFeed{steps: func(int64, TopologyMutator) {}}
	ed, err := NewEngine(&Network{Graph: g, Assign: a, Topology: feed}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if rp := &ed.be.reps[0]; rp.dyn == nil || rp.g == g || rp.nbr == g.NeighborMatrix() || ed.be.nbr != g.NeighborMatrix() {
		t.Error("dynamic engine did not build its private view over the base graph")
	}
}

// seekLike is a small discovery-ish protocol whose outcome
// fingerprints the whole delivery history.
type seekLike struct {
	id    NodeID
	c     int
	r     *rng.Source
	heard []NodeID
	slots int64
}

func (s *seekLike) Act(_ int64) Action {
	s.slots++
	switch s.r.Intn(3) {
	case 0:
		return Action{Kind: Broadcast, Ch: s.r.Intn(s.c)}
	case 1:
		return Action{Kind: Listen, Ch: s.r.Intn(s.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (s *seekLike) Observe(_ int64, d Delivery) {
	if d.From >= 0 {
		s.heard = append(s.heard, d.From)
	}
}

func (s *seekLike) Done() bool { return false }

func (s *seekLike) fingerprint() string {
	out := ""
	for _, id := range s.heard {
		out += string(rune('A' + int(id)))
	}
	return out + ";"
}
