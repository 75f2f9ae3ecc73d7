package radio

import (
	"context"
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file locks down the channel-indexed resolution fast paths
// against the model definition: a listener hears a frame iff exactly
// one *neighbor* broadcasts on its channel. Each fast path (empty
// channel, sole talker adjacent, sole talker non-adjacent, contended
// channel, jammed channel) gets a deterministic unit test, and a
// randomized test compares whole runs against a naive per-listener
// neighbor-scan oracle computed independently from the action scripts.

// parityJammer jams even global channels on every third slot.
type parityJammer struct{}

func (parityJammer) Jammed(slot int64, ch int32) bool {
	return ch%2 == 0 && slot%3 == 0
}

// fastPathNet builds a 5-node network: star 0-(1,2,3,4) plus edge 1-2,
// with all nodes sharing all channels (identity-permuted labels).
func fastPathNet(t *testing.T, c int) *Network {
	t.Helper()
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v)
	}
	g.MustAddEdge(1, 2)
	g.Finalize()
	return newTestNetwork(t, g, c, 77)
}

func runOneSlot(t *testing.T, nw *Network, actions []Action) ([]*Message, Stats) {
	t.Helper()
	protos := make([]Protocol, len(actions))
	sps := make([]*scriptProto, len(actions))
	for i := range actions {
		sp := &scriptProto{script: []Action{actions[i]}}
		sps[i] = sp
		protos[i] = sp
	}
	e, err := NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(1)
	heard := make([]*Message, len(actions))
	for i, sp := range sps {
		if len(sp.heard) != 1 {
			t.Fatalf("node %d observed %d times, want 1", i, len(sp.heard))
		}
		heard[i] = sp.heard[0]
	}
	return heard, st
}

func TestResolveEmptyChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Node 3 listens on global channel 1; the only broadcaster (node 4)
	// is on global channel 0.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 3, 1)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "x"},
	})
	if heard[3] != nil {
		t.Errorf("listener on empty channel heard %+v, want silence", heard[3])
	}
	if st.Deliveries != 0 || st.Collisions != 0 {
		t.Errorf("stats %+v, want no deliveries/collisions", st)
	}
}

func TestResolveSoleTalkerAdjacent(t *testing.T) {
	nw := fastPathNet(t, 2)
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 1, 0), Data: "hi"},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
	})
	if heard[0] == nil || heard[0].From != 1 || heard[0].Data != "hi" {
		t.Errorf("heard %+v, want From=1 Data=hi", heard[0])
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestResolveSoleTalkerNonAdjacent(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Nodes 3 and 4 are both leaves: not adjacent. 4 is the channel's
	// only broadcaster anywhere, so the index count is 1, but the
	// adjacency probe must still reject the delivery.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 3, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "x"},
	})
	if heard[3] != nil {
		t.Errorf("non-neighbor delivery: heard %+v, want silence", heard[3])
	}
	if st.Deliveries != 0 {
		t.Errorf("Deliveries = %d, want 0", st.Deliveries)
	}
}

func TestResolveContendedChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Three broadcasters on one channel. The center (0) has all three
	// as neighbors -> collision. Node 3 listens too but is adjacent to
	// none of the broadcasters... make node 1, 2, 4 broadcast: center
	// sees 3 talkers (collision); a listener adjacent to exactly one of
	// them would still hear. Use node 3: adjacent only to 0 -> silence.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 1, 0), Data: 1},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 0), Data: 2},
		{Kind: Listen, Ch: localFor(t, nw, 3, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: 4},
	})
	if heard[0] != nil {
		t.Errorf("center heard %+v through a 3-way collision", heard[0])
	}
	if heard[3] != nil {
		t.Errorf("leaf heard %+v with no broadcasting neighbor", heard[3])
	}
	if st.Collisions != 1 || st.Deliveries != 0 {
		t.Errorf("stats %+v, want 1 collision 0 deliveries", st)
	}
}

func TestResolveContendedChannelPartialAdjacency(t *testing.T) {
	nw := fastPathNet(t, 2)
	// Nodes 2 and 3 broadcast on the same channel; node 1 is adjacent
	// to 2 (edge 1-2) but not to 3, so despite global contention node 1
	// hears node 2 cleanly.
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Idle},
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 0), Data: "from2"},
		{Kind: Broadcast, Ch: localFor(t, nw, 3, 0), Data: "from3"},
		{Kind: Idle},
	})
	if heard[1] == nil || heard[1].From != 2 || heard[1].Data != "from2" {
		t.Errorf("heard %+v, want From=2 Data=from2", heard[1])
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestResolveJammedChannel(t *testing.T) {
	nw := fastPathNet(t, 2)
	nw.Jammer = parityJammer{}
	// Slot 0: even channels jammed. A clean single-broadcaster setup on
	// global channel 0 must be lost; the same setup on channel 1 heard
	// (listener 1 is adjacent to broadcaster 2 via the 1-2 edge).
	heard, st := runOneSlot(t, nw, []Action{
		{Kind: Listen, Ch: localFor(t, nw, 0, 0)},
		{Kind: Listen, Ch: localFor(t, nw, 1, 1)},
		{Kind: Broadcast, Ch: localFor(t, nw, 2, 1), Data: "heard"},
		{Kind: Idle},
		{Kind: Broadcast, Ch: localFor(t, nw, 4, 0), Data: "lost"},
	})
	if heard[0] != nil {
		t.Errorf("jammed listener heard %+v, want silence", heard[0])
	}
	if heard[1] == nil || heard[1].Data != "heard" {
		t.Errorf("clear-channel listener heard %+v, want From=2", heard[1])
	}
	if st.JammedListens != 1 || st.Deliveries != 1 {
		t.Errorf("stats %+v, want 1 jammed listen and 1 delivery", st)
	}
}

// randomScripts draws a deterministic random action per (node, slot).
// heavy skews ~3/4 of all actions to Broadcast, pushing per-channel
// broadcaster counts past the bitset-row threshold so the
// whole-channel AND/popcount resolution — not the list walks — decides
// most listener outcomes.
func randomScripts(r *rng.Source, n, c, slots int, heavy bool) [][]Action {
	scripts := make([][]Action, n)
	for u := range scripts {
		scripts[u] = make([]Action, slots)
		for s := range scripts[u] {
			roll := r.Intn(3)
			if heavy && r.Intn(4) != 0 {
				roll = 2
			}
			switch roll {
			case 0:
				scripts[u][s] = Action{Kind: Idle}
			case 1:
				scripts[u][s] = Action{Kind: Listen, Ch: r.Intn(c)}
			default:
				scripts[u][s] = Action{Kind: Broadcast, Ch: r.Intn(c), Data: u*1000 + s}
			}
		}
	}
	return scripts
}

// scriptSet wraps scripts as per-node protocols.
func scriptSet(scripts [][]Action) ([]Protocol, []*scriptProto) {
	protos := make([]Protocol, len(scripts))
	sps := make([]*scriptProto, len(scripts))
	for u := range scripts {
		sps[u] = &scriptProto{script: scripts[u]}
		protos[u] = sps[u]
	}
	return protos, sps
}

// oracleRun is the naive model's account of one run: every node's
// observation sequence, the Stats, and the delivery trace.
type oracleRun struct {
	heard [][]*Message
	stats Stats
	trace []traceEvent
}

// check compares an engine run against the oracle: every observation,
// the full Stats, and — when the run was traced — the trace.
func (o *oracleRun) check(t *testing.T, label string, st Stats, sps []*scriptProto, trace []traceEvent, traced bool) {
	t.Helper()
	want := o.stats
	want.Completed = st.Completed
	if st != want {
		t.Errorf("%s stats:\n engine %+v\n oracle %+v", label, st, want)
	}
	for u, sp := range sps {
		if len(sp.heard) != len(o.heard[u]) {
			t.Fatalf("%s: node %d observed %d times, oracle %d (clock must pause while down)",
				label, u, len(sp.heard), len(o.heard[u]))
		}
		for i, w := range o.heard[u] {
			got := sp.heard[i]
			if (got == nil) != (w == nil) || got != nil && (got.From != w.From || got.Data != w.Data) {
				t.Fatalf("%s: node %d observe %d: got %+v, oracle %+v", label, u, i, got, w)
			}
		}
	}
	if traced && fmt.Sprint(trace) != fmt.Sprint(o.trace) {
		t.Errorf("%s: trace diverged from the oracle's deliveries:\n engine %v\n oracle %v", label, trace, o.trace)
	}
}

// naiveOracle recomputes every listener outcome of a static run with
// the naive O(Δ) neighbor scan the engine used before the channel
// index — independently, from the raw action scripts.
func naiveOracle(g *graph.Graph, a *chanassign.Assignment, jam Jammer, scripts [][]Action) *oracleRun {
	n, slots := len(scripts), len(scripts[0])
	o := &oracleRun{heard: make([][]*Message, n)}
	for s := 0; s < slots; s++ {
		for u := 0; u < n; u++ {
			act := scripts[u][s]
			var want *Message
			switch act.Kind {
			case Idle:
				o.stats.Idles++
			case Broadcast:
				o.stats.Broadcasts++
			case Listen:
				o.stats.Listens++
				ch := a.Global(u, act.Ch)
				if jam != nil && jam.Jammed(int64(s), ch) {
					o.stats.JammedListens++
					break
				}
				talkers := 0
				for _, v := range g.Neighbors(u) {
					va := scripts[v][s]
					if va.Kind == Broadcast && a.Global(int(v), va.Ch) == ch {
						talkers++
						if talkers == 1 {
							want = &Message{From: NodeID(v), Data: va.Data}
						}
					}
				}
				switch {
				case talkers == 1:
					o.stats.Deliveries++
					o.trace = append(o.trace, traceEvent{int64(s), NodeID(u), ch, want.From})
				case talkers > 1:
					o.stats.Collisions++
					want = nil
				}
			}
			o.heard[u] = append(o.heard[u], want)
		}
	}
	o.stats.Slots = int64(slots)
	return o
}

// TestResolutionMatchesNaiveOracle compares whole engine runs against
// the naive-scan oracle: a solo Engine run, and a 3-replica
// BatchEngine whose replicas carry distinct scripts — replica 1
// jammed, replica 2 traced.
func TestResolutionMatchesNaiveOracle(t *testing.T) {
	const slots = 120
	cases := []struct {
		name  string
		n     int
		p     float64
		c     int
		jam   Jammer
		heavy bool
	}{
		{name: "sparse", n: 12, p: 0.2, c: 3},
		{name: "dense", n: 24, p: 0.6, c: 4},
		{name: "jammed", n: 18, p: 0.4, c: 3, jam: parityJammer{}},
		{name: "onechannel", n: 10, p: 0.5, c: 1},
		{name: "rowheavy", n: 32, p: 0.5, c: 2, heavy: true},
		{name: "rowjammed", n: 28, p: 0.45, c: 2, jam: parityJammer{}, heavy: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.GNP(tc.n, tc.p, rng.New(uint64(ci)+100))
			if err != nil {
				t.Fatal(err)
			}
			a, err := chanassign.Identical(tc.n, tc.c, rng.New(uint64(ci)+200))
			if err != nil {
				t.Fatal(err)
			}
			scripts := randomScripts(rng.New(uint64(ci)+300), tc.n, tc.c, slots, tc.heavy)
			protos, sps := scriptSet(scripts)
			e, err := NewEngine(&Network{Graph: g, Assign: a, Jammer: tc.jam}, protos)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Run(slots + 1)
			if st.Slots != slots {
				t.Fatalf("ran %d slots, want %d", st.Slots, slots)
			}
			naiveOracle(g, a, tc.jam, scripts).check(t, "engine", st, sps, nil, false)

			jams := []Jammer{tc.jam, parityJammer{}, tc.jam}
			reps := make([]Replica, 3)
			repScripts := make([][][]Action, 3)
			repSps := make([][]*scriptProto, 3)
			var trace []traceEvent
			for r := range reps {
				repScripts[r] = randomScripts(rng.New(uint64(ci)+310+uint64(r)), tc.n, tc.c, slots, tc.heavy)
				reps[r].Protocols, repSps[r] = scriptSet(repScripts[r])
				reps[r].Jammer = jams[r]
			}
			reps[2].Trace = traceRecorder(&trace)
			be, err := NewBatchEngine(g, a, reps)
			if err != nil {
				t.Fatal(err)
			}
			for r, st := range be.Run(slots + 1) {
				naiveOracle(g, a, jams[r], repScripts[r]).check(t, fmt.Sprintf("replica %d", r), st, repSps[r], trace, r == 2)
			}
		})
	}
}

// TestResolveBinarySearchPathHugeGraph drives the engine on a graph
// above the dense-matrix node cap, exercising the sorted-adjacency
// binary-search fallback in the resolution fast paths.
func TestResolveBinarySearchPathHugeGraph(t *testing.T) {
	n := 8200 // > maxMatrixNodes in internal/graph
	g := graph.Path(n)
	if g.NeighborMatrix() != nil {
		t.Fatal("expected no dense matrix above the node cap")
	}
	a, err := chanassign.Identical(n, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]Protocol, n)
	sps := make([]*scriptProto, n)
	for u := 0; u < n; u++ {
		// Even nodes broadcast, odd nodes listen: every odd listener has
		// two broadcasting neighbors (collision), except node n-1 if n
		// is even (sole neighbor n-2 -> delivery).
		var act Action
		if u%2 == 0 {
			act = Action{Kind: Broadcast, Ch: 0, Data: u}
		} else {
			act = Action{Kind: Listen, Ch: 0}
		}
		sp := &scriptProto{script: []Action{act}}
		sps[u] = sp
		protos[u] = sp
	}
	e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(1)
	wantCollisions := int64(n/2 - 1)
	wantDeliveries := int64(1)
	if st.Collisions != wantCollisions || st.Deliveries != wantDeliveries {
		t.Errorf("stats %+v, want %d collisions %d deliveries", st, wantCollisions, wantDeliveries)
	}
	last := sps[n-1]
	if len(last.heard) != 1 || last.heard[0] == nil || last.heard[0].From != NodeID(n-2) {
		t.Errorf("tail listener heard %+v, want From=%d", last.heard, n-2)
	}
}

// TestRunCtxCancellation covers both loop entry points' cancellation:
// a context cancelled before the run executes no slot, and one
// cancelled mid-run stops within ctxCheckMask+1 slots of the cancel.
// Either way the run reports ctx.Err() and incomplete stats.
func TestRunCtxCancellation(t *testing.T) {
	g, err := graph.GNP(16, 0.3, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(16, 3, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	protos := func() []Protocol {
		master := rng.New(5)
		out := make([]Protocol, 16)
		for i := range out {
			out[i] = &randomProto{r: master.Split(uint64(i)), c: 3, slots: 1 << 30}
		}
		return out
	}
	const cancelAt = 37
	runs := map[string]func(ctx context.Context, stop func(int64) bool) (Stats, error){
		"engine": func(ctx context.Context, stop func(int64) bool) (Stats, error) {
			e, err := NewEngine(&Network{Graph: g, Assign: a}, protos())
			if err != nil {
				t.Fatal(err)
			}
			return e.RunUntilCtx(ctx, 1<<20, stop)
		},
		"batch": func(ctx context.Context, stop func(int64) bool) (Stats, error) {
			be, err := NewBatchEngine(g, a, []Replica{{Protocols: protos()}, {Protocols: protos()}})
			if err != nil {
				t.Fatal(err)
			}
			sts, err := be.RunCtx(ctx, 1<<20, func(r int, slot int64) bool { return r == 0 && stop(slot) })
			if sts[0].Slots != sts[1].Slots {
				t.Errorf("replicas stopped at slots %d and %d", sts[0].Slots, sts[1].Slots)
			}
			return sts[1], err
		},
	}
	for name, run := range runs {
		t.Run(name+"/pre-cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			st, err := run(ctx, func(int64) bool { return false })
			if err == nil || st.Completed || st.Slots != 0 {
				t.Errorf("pre-cancelled run: err=%v stats %+v, want ctx error after 0 slots", err, st)
			}
		})
		t.Run(name+"/mid-run", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st, err := run(ctx, func(slot int64) bool {
				if slot == cancelAt {
					cancel()
				}
				return false
			})
			if err == nil || st.Completed || st.Slots < cancelAt || st.Slots > cancelAt+ctxCheckMask+1 {
				t.Errorf("mid-run cancel at slot %d: err=%v stats %+v, want ctx error within %d slots",
					cancelAt, err, st, ctxCheckMask+1)
			}
		})
	}
}

// topoEvent is one scripted topology mutation: a node up/down flip or
// an edge flap. Events are pre-generated against a tracked model so
// every event is a real state change (the mutator must return true).
type topoEvent struct {
	churn bool
	a, b  int
	on    bool
}

type edgeKey [2]int

func mkEdgeKey(a, b int) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// randomTopoEvents scripts churn and flap events from slot 1 on
// (slot-0 mutations are feed reconciliation, not model events).
// Tracking up/edges during generation guarantees each event is a
// genuine change.
func randomTopoEvents(t *testing.T, g *graph.Graph, r *rng.Source, slots int) map[int64][]topoEvent {
	t.Helper()
	n := g.N()
	edges := make(map[edgeKey]bool)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			edges[mkEdgeKey(u, int(v))] = true
		}
	}
	up := make([]bool, n)
	for u := range up {
		up[u] = true
	}
	events := make(map[int64][]topoEvent)
	churned, flapped := 0, 0
	for s := int64(1); s < int64(slots); s++ {
		if r.Intn(4) == 0 {
			u := r.Intn(n)
			up[u] = !up[u]
			events[s] = append(events[s], topoEvent{churn: true, a: u, on: up[u]})
			churned++
		}
		if r.Intn(4) == 0 {
			ea, eb := r.Intn(n), r.Intn(n)
			if ea != eb {
				k := mkEdgeKey(ea, eb)
				edges[k] = !edges[k]
				events[s] = append(events[s], topoEvent{a: k[0], b: k[1], on: edges[k]})
				flapped++
			}
		}
	}
	if churned < 10 || flapped < 10 {
		t.Fatalf("event script too thin: %d churn, %d flap events", churned, flapped)
	}
	return events
}

// eventFeed replays scripted events, failing the test on any no-op.
func eventFeed(t *testing.T, events map[int64][]topoEvent) TopologyFeed {
	return &scriptFeed{steps: func(slot int64, mut TopologyMutator) {
		for _, ev := range events[slot] {
			var changed bool
			switch {
			case ev.churn:
				changed = mut.SetNodeUp(ev.a, ev.on)
			case ev.on:
				changed = mut.AddEdge(ev.a, ev.b)
			default:
				changed = mut.RemoveEdge(ev.a, ev.b)
			}
			if !changed {
				t.Errorf("slot %d: event %+v was a no-op", slot, ev)
			}
		}
	}}
}

// naiveDynamicOracle replays the same events on an independent naive
// model: down nodes neither transmit nor observe (their protocol
// clocks pause), listeners resolve against the *current* adjacency,
// and the partition-loss counterfactual resolves the same broadcaster
// set against the untouched base adjacency.
func naiveDynamicOracle(g *graph.Graph, a *chanassign.Assignment, jam Jammer, scripts [][]Action, events map[int64][]topoEvent, slots int64) *oracleRun {
	n := g.N()
	base := make(map[edgeKey]bool)
	cur := make(map[edgeKey]bool)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			base[mkEdgeKey(u, int(v))] = true
			cur[mkEdgeKey(u, int(v))] = true
		}
	}
	up := make([]bool, n)
	for u := range up {
		up[u] = true
	}
	pos := make([]int, n)
	acts := make([]Action, n)
	o := &oracleRun{heard: make([][]*Message, n)}
	for s := int64(0); s < slots; s++ {
		for _, ev := range events[s] {
			switch {
			case ev.churn && ev.on:
				o.stats.NodeJoins++
				up[ev.a] = true
			case ev.churn:
				o.stats.NodeLeaves++
				up[ev.a] = false
			case ev.on:
				o.stats.EdgeAdds++
				cur[mkEdgeKey(ev.a, ev.b)] = true
			default:
				o.stats.EdgeRemoves++
				cur[mkEdgeKey(ev.a, ev.b)] = false
			}
		}
		for u := 0; u < n; u++ {
			if !up[u] {
				o.stats.DownSlots++
				continue
			}
			acts[u] = scripts[u][pos[u]]
			pos[u]++
		}
		for u := 0; u < n; u++ {
			if !up[u] {
				continue
			}
			var heard *Message
			switch act := acts[u]; act.Kind {
			case Idle:
				o.stats.Idles++
			case Broadcast:
				o.stats.Broadcasts++
			case Listen:
				o.stats.Listens++
				ch := a.Global(u, act.Ch)
				if jam != nil && jam.Jammed(s, ch) {
					o.stats.JammedListens++
					break
				}
				talkers, baseTalkers := 0, 0
				var from, baseFrom *Message
				for v := 0; v < n; v++ {
					if v == u || !up[v] || acts[v].Kind != Broadcast || a.Global(v, acts[v].Ch) != ch {
						continue
					}
					if cur[mkEdgeKey(u, v)] {
						talkers++
						if talkers == 1 {
							from = &Message{From: NodeID(v), Data: acts[v].Data}
						}
					}
					if base[mkEdgeKey(u, v)] {
						baseTalkers++
						if baseTalkers == 1 {
							baseFrom = &Message{From: NodeID(v), Data: acts[v].Data}
						}
					}
				}
				if baseTalkers == 1 && (talkers != 1 || from.From != baseFrom.From) {
					o.stats.PartitionLosses++
				}
				switch {
				case talkers == 1:
					o.stats.Deliveries++
					o.trace = append(o.trace, traceEvent{s, NodeID(u), ch, from.From})
					heard = from
				case talkers > 1:
					o.stats.Collisions++
				}
			}
			o.heard[u] = append(o.heard[u], heard)
		}
	}
	o.stats.Slots = slots
	return o
}

// TestDynamicsResolutionMatchesNaiveOracle is the oracle suite's
// dynamics arm: node churn and link flapping are scripted on top of
// randomized action scripts, and the naive model replays the same
// events. Every heard message, plus the full Stats including the
// churn/flap/loss counters, must match — on a solo Engine run and on
// each replica of a 3-replica BatchEngine with distinct scripts and
// events (replica 0 jammed, replica 2 traced).
func TestDynamicsResolutionMatchesNaiveOracle(t *testing.T) {
	const (
		n     = 20
		slots = 150
		c     = 3
	)
	g, err := graph.GNP(n, 0.35, rng.New(400))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(n, c, rng.New(401))
	if err != nil {
		t.Fatal(err)
	}
	// A node's script is consumed only while it is up.
	scripts := randomScripts(rng.New(402), n, c, slots, false)
	events := randomTopoEvents(t, g, rng.New(403), slots)
	protos, sps := scriptSet(scripts)
	e, err := NewEngine(&Network{Graph: g, Assign: a, Jammer: parityJammer{}, Topology: eventFeed(t, events)}, protos)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(slots)
	naiveDynamicOracle(g, a, parityJammer{}, scripts, events, slots).check(t, "engine", st, sps, nil, false)

	jams := []Jammer{parityJammer{}, nil, nil}
	reps := make([]Replica, 3)
	repScripts := make([][][]Action, 3)
	repEvents := make([]map[int64][]topoEvent, 3)
	repSps := make([][]*scriptProto, 3)
	var trace []traceEvent
	for r := range reps {
		repScripts[r] = randomScripts(rng.New(412+10*uint64(r)), n, c, slots, false)
		repEvents[r] = randomTopoEvents(t, g, rng.New(413+10*uint64(r)), slots)
		reps[r].Protocols, repSps[r] = scriptSet(repScripts[r])
		reps[r].Jammer = jams[r]
		reps[r].Topology = eventFeed(t, repEvents[r])
	}
	reps[2].Trace = traceRecorder(&trace)
	be, err := NewBatchEngine(g, a, reps)
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range be.Run(slots) {
		naiveDynamicOracle(g, a, jams[r], repScripts[r], repEvents[r], slots).check(t, fmt.Sprintf("replica %d", r), st, repSps[r], trace, r == 2)
	}
}
