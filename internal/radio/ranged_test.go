package radio

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file locks down the batch-aware range ABI: an engine whose
// protocols share a bank must produce byte-identical outcomes — stats,
// traces, per-node observations — to the same protocols on per-node
// dispatch, across static, jammed and dynamic (churn + flap) networks,
// solo and batched. It also pins the detection rules and the range
// path's zero-alloc steady state.

// bankedProto is randomProto with an optional bank view: the same rng
// draw order and observation bookkeeping on both dispatch modes.
type bankedProto struct {
	bank  *rangedTestBank
	idx   int
	r     *rng.Source
	c     int
	heard []NodeID
	nils  int64
}

func (p *bankedProto) Act(_ int64) Action {
	switch p.r.Intn(3) {
	case 0:
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c)}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (p *bankedProto) Observe(_ int64, d Delivery) {
	if d.From >= 0 {
		p.heard = append(p.heard, d.From)
	} else {
		p.nils++
	}
}

func (p *bankedProto) Done() bool { return false }

func (p *bankedProto) RangeBank() (RangeProtocol, int) {
	if p.bank == nil {
		return nil, 0
	}
	return p.bank, p.idx
}

func (p *bankedProto) fingerprint() string {
	return fmt.Sprintf("%v/%d;", p.heard, p.nils)
}

type rangedTestBank struct{ nodes []*bankedProto }

func (b *rangedTestBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *rangedTestBank) ObserveRange(slot int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		b.nodes[u].Observe(slot, deliveries[u])
	}
}

// mkBankedSet builds n per-node views seeded from master; banked
// attaches the shared bank (range dispatch), otherwise the views opt
// out and the engine falls back to per-node calls.
func mkBankedSet(n, c int, master *rng.Source, banked bool) ([]Protocol, []*bankedProto) {
	views := make([]*bankedProto, n)
	protos := make([]Protocol, n)
	for u := 0; u < n; u++ {
		views[u] = &bankedProto{idx: u, r: master.Split(uint64(u)), c: c}
		protos[u] = views[u]
	}
	if banked {
		bank := &rangedTestBank{nodes: views}
		for _, v := range views {
			v.bank = bank
		}
	}
	return protos, views
}

// rangedFixture is the shared network for the equivalence tests.
func rangedFixture(t *testing.T) (*graph.Graph, *chanassign.Assignment) {
	t.Helper()
	g, err := graph.GNP(24, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedPool(24, 5, 2, 14, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// churnFlapFeed returns a deterministic scripted feed mixing node
// churn and edge flapping, fresh per run (run-scoped feed contract).
func churnFlapFeed(g *graph.Graph, seed uint64) TopologyFeed {
	n := g.N()
	edges := g.Edges()
	r := rng.New(seed)
	return &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		u := r.Intn(n)
		if r.Bernoulli(0.1) && !mut.SetNodeUp(u, false) {
			mut.SetNodeUp(u, true)
		}
		e := edges[r.Intn(len(edges))]
		if r.Bernoulli(0.2) && !mut.RemoveEdge(int(e.U), int(e.V)) {
			mut.AddEdge(int(e.U), int(e.V))
		}
	}}
}

// TestEngineRangeDispatchMatchesPerNode: for static, jammed and
// dynamic networks, the range ABI produces byte-identical stats,
// traces and per-node observations to per-node dispatch on the same
// seed — solo, and as each of three same-seed replicas of one
// BatchEngine.
func TestEngineRangeDispatchMatchesPerNode(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, slots = 24, 5, 400
	scenarios := []struct {
		name    string
		jam     Jammer
		dynamic bool
	}{
		{"static", nil, false},
		{"jammed", parityJammer{}, false},
		{"dynamic", nil, true},
		{"jammed-dynamic", parityJammer{}, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			mk := func(banked bool) soloRun {
				var trace []traceEvent
				nw := &Network{Graph: g, Assign: a, Jammer: sc.jam, Trace: traceRecorder(&trace)}
				if sc.dynamic {
					nw.Topology = churnFlapFeed(g, 0xFEED)
				}
				protos, views := mkBankedSet(n, c, rng.New(42), banked)
				return soloRun{nw: nw, protos: protos, outcome: func() string {
					fp := fmt.Sprint(trace)
					for _, v := range views {
						fp += v.fingerprint()
					}
					return fp
				}}
			}
			want := mk(false)
			e, err := NewEngine(want.nw, want.protos)
			if err != nil {
				t.Fatal(err)
			}
			if e.RangeDispatch() {
				t.Fatal("per-node set selected range dispatch")
			}
			wantStats := e.Run(slots)
			if sc.dynamic && (wantStats.DownSlots == 0 || wantStats.EdgeAdds+wantStats.EdgeRemoves == 0) {
				t.Fatalf("dynamic scenario applied no dynamics: %+v", wantStats)
			}
			sts, err := checkSoloVsBatch(3, slots, func(int) soloRun { return mk(true) })
			if err != nil {
				t.Fatal(err)
			}
			got := mk(true)
			ge, err := NewEngine(got.nw, got.protos)
			if err != nil {
				t.Fatal(err)
			}
			if !ge.RangeDispatch() {
				t.Fatal("banked set did not select range dispatch")
			}
			if gotStats := ge.Run(slots); gotStats != wantStats || sts[0] != wantStats {
				t.Errorf("stats:\n range    %+v\n per-node %+v", gotStats, wantStats)
			}
			if got.outcome() != want.outcome() {
				t.Error("range dispatch observations or trace diverged from per-node dispatch")
			}
		})
	}
}

// TestRangeBankDetectionRules pins the opt-in rules: range dispatch is
// selected iff every protocol reports the same bank at its own index;
// any defect silently falls back to per-node dispatch.
func TestRangeBankDetectionRules(t *testing.T) {
	mk := func(banked bool) []Protocol {
		protos, _ := mkBankedSet(8, 3, rng.New(1), banked)
		return protos
	}
	if detectRangeBank(mk(true)) == nil {
		t.Error("uniform bank not detected")
	}
	if detectRangeBank(mk(false)) != nil {
		t.Error("nil banks selected range dispatch")
	}
	if detectRangeBank(nil) != nil {
		t.Error("empty set selected range dispatch")
	}

	// One node that is not a RangeNode at all.
	mixed := mk(true)
	mixed[3] = &randomProto{r: rng.New(2), c: 3, slots: 10}
	if detectRangeBank(mixed) != nil {
		t.Error("foreign protocol in the set selected range dispatch")
	}

	// A view at the wrong index.
	swapped := mk(true)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	if detectRangeBank(swapped) != nil {
		t.Error("wrong-index view selected range dispatch")
	}

	// Two banks split over one protocol set.
	left, _ := mkBankedSet(4, 3, rng.New(3), true)
	right, _ := mkBankedSet(4, 3, rng.New(4), true)
	split := append(append([]Protocol{}, left...), right...)
	if detectRangeBank(split) != nil {
		t.Error("split banks selected range dispatch")
	}
}

// hotBankedProto is hotProto behind a bank: the zero-allocation
// workload for the range path's alloc contract.
type hotBankedProto struct {
	hotProto
	bank *hotBank
	idx  int
}

func (p *hotBankedProto) RangeBank() (RangeProtocol, int) { return p.bank, p.idx }

type hotBank struct{ nodes []*hotBankedProto }

func (b *hotBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *hotBank) ObserveRange(_ int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		p := b.nodes[u]
		if deliveries[u].From >= 0 {
			p.heard++
		} else {
			p.misses++
		}
		p.slot++
	}
}

// TestEngineRangeDispatchZeroAllocsPerSlot asserts the range path's
// steady state allocates nothing per slot, clear and jammed.
func TestEngineRangeDispatchZeroAllocsPerSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		jam  Jammer
	}{
		{"clear", nil},
		{"jammed", parityJammer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, c = 24, 3
			nw := allocNetwork(t, n, c, tc.jam)
			bank := &hotBank{nodes: make([]*hotBankedProto, n)}
			protos := make([]Protocol, n)
			for u := 0; u < n; u++ {
				bank.nodes[u] = &hotBankedProto{hotProto: hotProto{id: u, c: c}, bank: bank, idx: u}
				protos[u] = bank.nodes[u]
			}
			e, err := NewEngine(nw, protos)
			if err != nil {
				t.Fatal(err)
			}
			if !e.RangeDispatch() {
				t.Fatal("bank not detected")
			}
			target := int64(0)
			step := func() {
				target += 50
				e.Run(target)
			}
			step() // warm up scratch growth
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("range path allocates %.2f/50 slots in steady state, want 0", avg)
			}
			if st := e.Stats(); st.Deliveries == 0 || st.Collisions == 0 {
				t.Fatalf("workload did not exercise delivery+collision paths: %+v", st)
			}
		})
	}
}

// TestBatchEngineDynamicMatchesSoloEngines extends the batch engine's
// replica-equivalence guarantee to dynamic topologies: a batch mixing
// static and dynamic replicas (per-replica churn + flap feeds, one
// replica jammed) must produce byte-identical stats — including the
// topology counters — traces and protocol outcomes to running each
// replica alone on an Engine with the same feed script.
func TestBatchEngineDynamicMatchesSoloEngines(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, b, slots = 24, 5, 4, 400
	mkFeed := func(r int) TopologyFeed {
		if r == 0 {
			return nil // one static replica in the mix
		}
		return churnFlapFeed(g, 0xBEEF+uint64(r))
	}
	mkJam := func(r int) Jammer {
		if r == 2 {
			return parityJammer{}
		}
		return nil
	}

	reps := make([]Replica, b)
	batchTraces := make([][]traceEvent, b)
	batchViews := make([][]*bankedProto, b)
	for r := range reps {
		protos, views := mkBankedSet(n, c, rng.New(100+uint64(r)), false)
		batchViews[r] = views
		reps[r] = Replica{
			Protocols: protos,
			Jammer:    mkJam(r),
			Trace:     traceRecorder(&batchTraces[r]),
			Topology:  mkFeed(r),
		}
	}
	be, err := NewBatchEngine(g, a, reps)
	if err != nil {
		t.Fatal(err)
	}
	batchStats := be.Run(slots)

	sawDynamics := false
	for r := 0; r < b; r++ {
		protos, views := mkBankedSet(n, c, rng.New(100+uint64(r)), false)
		var soloTrace []traceEvent
		nw := &Network{Graph: g, Assign: a, Jammer: mkJam(r), Trace: traceRecorder(&soloTrace), Topology: mkFeed(r)}
		e, err := NewEngine(nw, protos)
		if err != nil {
			t.Fatal(err)
		}
		soloStats := e.Run(slots)
		if soloStats.DownSlots > 0 {
			sawDynamics = true
		}
		if batchStats[r] != soloStats {
			t.Errorf("replica %d stats:\n batch %+v\n solo  %+v", r, batchStats[r], soloStats)
		}
		if len(batchTraces[r]) != len(soloTrace) {
			t.Fatalf("replica %d: %d batch trace events, %d solo", r, len(batchTraces[r]), len(soloTrace))
		}
		for i := range soloTrace {
			if batchTraces[r][i] != soloTrace[i] {
				t.Fatalf("replica %d trace event %d: batch %+v, solo %+v", r, i, batchTraces[r][i], soloTrace[i])
			}
		}
		for u := range views {
			if batchViews[r][u].fingerprint() != views[u].fingerprint() {
				t.Fatalf("replica %d node %d observations diverged", r, u)
			}
		}
	}
	if !sawDynamics {
		t.Fatal("no replica saw down-node slots; fixture too tame")
	}
}

// TestBatchEngineRangeMatchesPerNode: banked replicas (range
// dispatch) inside a batch — static and dynamic — are byte-identical
// to the same replicas on per-node dispatch.
func TestBatchEngineRangeMatchesPerNode(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, b, slots = 24, 5, 3, 400
	mkFeed := func(r int) TopologyFeed {
		if r == 0 {
			return nil
		}
		return churnFlapFeed(g, 0xCAFE+uint64(r))
	}
	run := func(banked bool) ([]Stats, []string, [][]traceEvent) {
		reps := make([]Replica, b)
		traces := make([][]traceEvent, b)
		views := make([][]*bankedProto, b)
		for r := range reps {
			protos, vs := mkBankedSet(n, c, rng.New(200+uint64(r)), banked)
			views[r] = vs
			reps[r] = Replica{Protocols: protos, Trace: traceRecorder(&traces[r]), Topology: mkFeed(r)}
		}
		be, err := NewBatchEngine(g, a, reps)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < b; r++ {
			if be.RangeDispatch(r) != banked {
				t.Fatalf("replica %d: banked=%v but RangeDispatch=%v", r, banked, be.RangeDispatch(r))
			}
		}
		stats := be.Run(slots)
		fps := make([]string, b)
		for r := range views {
			for _, v := range views[r] {
				fps[r] += v.fingerprint()
			}
		}
		return stats, fps, traces
	}
	wantStats, wantFPs, wantTraces := run(false)
	gotStats, gotFPs, gotTraces := run(true)
	for r := 0; r < b; r++ {
		if gotStats[r] != wantStats[r] {
			t.Errorf("replica %d stats:\n range    %+v\n per-node %+v", r, gotStats[r], wantStats[r])
		}
		if gotFPs[r] != wantFPs[r] {
			t.Errorf("replica %d observations diverged", r)
		}
		if len(gotTraces[r]) != len(wantTraces[r]) {
			t.Fatalf("replica %d: %d range trace events, %d per-node", r, len(gotTraces[r]), len(wantTraces[r]))
		}
		for i := range wantTraces[r] {
			if gotTraces[r][i] != wantTraces[r][i] {
				t.Fatalf("replica %d trace event %d: range %+v, per-node %+v", r, i, gotTraces[r][i], wantTraces[r][i])
			}
		}
	}
}
