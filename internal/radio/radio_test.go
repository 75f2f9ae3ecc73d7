package radio

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// scriptProto replays a fixed list of actions and records every
// Delivery it observes (From < 0: heard nothing).
type scriptProto struct {
	script []Action
	pos    int
	heard  []Delivery
}

func (p *scriptProto) Act(_ int64) Action {
	a := p.script[p.pos]
	p.pos++
	return a
}

func (p *scriptProto) Observe(_ int64, d Delivery) {
	p.heard = append(p.heard, d)
}

func (p *scriptProto) Done() bool { return p.pos >= len(p.script) }

// newTestNetwork builds a network where all nodes share all channels
// and local labels equal global labels (identity assignment is a
// random permutation, so we find the local label explicitly).
func newTestNetwork(t *testing.T, g *graph.Graph, c int, seed uint64) *Network {
	t.Helper()
	a, err := chanassign.Identical(g.N(), c, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Network{Graph: g, Assign: a}
}

// localFor returns node u's local label for global channel gch.
func localFor(t *testing.T, nw *Network, u int, gch int32) int {
	t.Helper()
	l := nw.Assign.Local(u, gch)
	if l < 0 {
		t.Fatalf("node %d has no local label for global channel %d", u, gch)
	}
	return int(l)
}

func TestSingleBroadcasterDelivers(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 1)
	p0 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)}}}
	p1 := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 1, 0)}}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if st.Slots != 1 {
		t.Errorf("Slots = %d, want 1", st.Slots)
	}
	if len(p1.heard) != 1 || p1.heard[0].From < 0 {
		t.Fatalf("listener heard %v, want one message", p1.heard)
	}
	if p1.heard[0].From != 0 {
		t.Errorf("heard %+v, want From=0", p1.heard[0])
	}
	if st.Deliveries != 1 || st.Collisions != 0 {
		t.Errorf("stats %+v, want 1 delivery 0 collisions", st)
	}
}

func TestCollisionSilence(t *testing.T) {
	// Star: two leaves broadcast to the center on the same channel.
	g := graph.Star(3)
	nw := newTestNetwork(t, g, 2, 2)
	center := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 0, 0)}}}
	leaf1 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 1, 0)}}}
	leaf2 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 2, 0)}}}
	e, err := NewEngine(nw, []Protocol{center, leaf1, leaf2})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if len(center.heard) != 1 || center.heard[0].From >= 0 {
		t.Fatalf("center heard %v, want one empty observation (collision)", center.heard)
	}
	if st.Collisions != 1 || st.Deliveries != 0 {
		t.Errorf("stats %+v, want 1 collision 0 deliveries", st)
	}
}

func TestDifferentChannelsNoInterference(t *testing.T) {
	// Two leaves broadcast on different channels; center listens on
	// leaf2's channel and hears it cleanly.
	g := graph.Star(3)
	nw := newTestNetwork(t, g, 2, 3)
	center := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 0, 1)}}}
	leaf1 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 1, 0)}}}
	leaf2 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 2, 1)}}}
	e, err := NewEngine(nw, []Protocol{center, leaf1, leaf2})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(center.heard) != 1 || center.heard[0].From < 0 {
		t.Fatalf("center heard %v, want one message", center.heard)
	}
	if center.heard[0].From != 2 {
		t.Errorf("heard %v, want leaf2's message", center.heard[0])
	}
}

func TestNonNeighborsDoNotInterfere(t *testing.T) {
	// Path 0-1-2-3: nodes 0 and 3 broadcast on channel 0; nodes 1 and 2
	// listen on channel 0. Each listener has exactly one broadcasting
	// neighbor (0 and 3 are not adjacent to both), so both hear.
	g := graph.Path(4)
	nw := newTestNetwork(t, g, 1, 4)
	p0 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: 0}}}
	p1 := &scriptProto{script: []Action{{Kind: Listen, Ch: 0}}}
	p2 := &scriptProto{script: []Action{{Kind: Listen, Ch: 0}}}
	p3 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: 0}}}
	e, err := NewEngine(nw, []Protocol{p0, p1, p2, p3})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if p1.heard[0].From != 0 {
		t.Errorf("node 1 heard %v, want node 0", p1.heard[0])
	}
	if p2.heard[0].From != 3 {
		t.Errorf("node 2 heard %v, want node 3", p2.heard[0])
	}
}

func TestBroadcasterHearsNothing(t *testing.T) {
	// Two adjacent broadcasters on one channel: broadcasters only
	// "receive" their own message; Observe reports From < 0.
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 5)
	p0 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: 0}}}
	p1 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: 0}}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if p0.heard[0].From >= 0 || p1.heard[0].From >= 0 {
		t.Error("broadcasters observed a message")
	}
}

func TestIdleObservesNil(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 6)
	p0 := &scriptProto{script: []Action{{Kind: Idle}}}
	p1 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: 0}}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if p0.heard[0].From >= 0 {
		t.Error("idle node observed a message")
	}
	if st.Idles != 1 {
		t.Errorf("Idles = %d, want 1", st.Idles)
	}
}

func TestMaxSlotsBudget(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 7)
	// Protocols that never finish.
	mk := func() *scriptProto {
		s := make([]Action, 1000)
		for i := range s {
			s[i] = Action{Kind: Idle}
		}
		return &scriptProto{script: s}
	}
	e, err := NewEngine(nw, []Protocol{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(5)
	if st.Completed {
		t.Error("Completed = true with exhausted budget")
	}
	if st.Slots != 5 {
		t.Errorf("Slots = %d, want 5", st.Slots)
	}
	// Continue the same engine with a larger budget.
	st = e.Run(1000)
	if !st.Completed {
		t.Error("run did not complete after budget increase")
	}
}

func TestEngineValidation(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 8)
	if _, err := NewEngine(nw, []Protocol{&scriptProto{}}); err == nil {
		t.Error("protocol-count mismatch accepted")
	}
	if _, err := NewEngine(&Network{}, nil); err == nil {
		t.Error("nil graph accepted")
	}
	bad, _ := chanassign.Identical(3, 1, rng.New(1))
	if _, err := NewEngine(&Network{Graph: g, Assign: bad}, nil); err == nil {
		t.Error("assignment size mismatch accepted")
	}
}

// TestTraceFiresBeforeObserves: within a slot, all of a run's trace
// callbacks fire before any of its observes — for a per-node set
// through the adapter exactly as for a banked set — so when slot s is
// traced, every node has observed exactly s slots.
func TestTraceFiresBeforeObserves(t *testing.T) {
	g, a := rangedFixture(t)
	for _, set := range []string{"node", "bank"} {
		// 80 slots: no node of either set finishes before 90.
		protos, views := pinSet(set, 24, 5, 7)
		traced := 0
		e, err := NewEngine(&Network{Graph: g, Assign: a, Trace: func(slot int64, listener NodeID, _ int32, _ Delivery) {
			traced++
			for u, v := range views {
				if v.observed != slot {
					t.Fatalf("%s: trace of slot %d (listener %d) ran after node %d observed %d slots", set, slot, listener, u, v.observed)
				}
			}
		}}, protos)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(80)
		if traced == 0 {
			t.Fatalf("%s: no deliveries traced", set)
		}
	}
}

// randomProto takes uniformly random actions; used for engine
// equivalence testing.
type randomProto struct {
	r     *rng.Source
	c     int
	slots int
	heard []NodeID // only From ids, comparable across engines
}

func (p *randomProto) Act(_ int64) Action {
	p.slots--
	switch p.r.Intn(3) {
	case 0:
		return Action{Kind: Idle}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c)}
	}
}

func (p *randomProto) Observe(_ int64, d Delivery) {
	if d.From >= 0 {
		p.heard = append(p.heard, d.From)
	}
}

func (p *randomProto) Done() bool { return p.slots <= 0 }

// randomRun builds the random-traffic equivalence workload: a 20-node
// GNP network and one randomProto per node drawn from master seed
// seed, each living `slots` slots.
func randomRun(t *testing.T, seed uint64, slots int) soloRun {
	t.Helper()
	g, err := graph.GNP(20, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedPool(20, 5, 2, 12, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(seed)
	protos := make([]Protocol, 20)
	rps := make([]*randomProto, 20)
	for i := range protos {
		rps[i] = &randomProto{r: master.Split(uint64(i)), c: 5, slots: slots}
		protos[i] = rps[i]
	}
	return soloRun{nw: &Network{Graph: g, Assign: a}, protos: protos, outcome: func() string {
		out := ""
		for i, rp := range rps {
			out += fmt.Sprintf("%d:%v;", i, rp.heard)
		}
		return out
	}}
}

func TestSequentialDeterminism(t *testing.T) {
	var stats [2]Stats
	var outs [2]string
	for i := range stats {
		run := randomRun(t, 42, 200)
		e, err := NewEngine(run.nw, run.protos)
		if err != nil {
			t.Fatal(err)
		}
		stats[i], outs[i] = e.Run(10000), run.outcome()
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", stats[0], stats[1])
	}
	if outs[0] != outs[1] {
		t.Fatal("observations differ across identical runs")
	}
}

// TestParallelMatchesSequential steps three random-traffic protocol
// sets (distinct seeds, staggered lifetimes) side by side as the
// replicas of one BatchEngine and requires each to match its solo
// Engine run exactly.
func TestParallelMatchesSequential(t *testing.T) {
	if _, err := checkSoloVsBatch(3, 10000, func(r int) soloRun {
		return randomRun(t, 42+uint64(r), 200+40*r)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRunContinuation: a run continued with growing budgets —
// including after a stop predicate fired — executes exactly the slots
// of one uninterrupted run with the final budget.
func TestEngineRunContinuation(t *testing.T) {
	var trace []traceEvent
	run := randomRun(t, 9, 300)
	run.nw.Trace = traceRecorder(&trace)
	e, err := NewEngine(run.nw, run.protos)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Run(50); st.Slots != 50 || st.Completed {
		t.Fatalf("first leg: %+v", st)
	}
	if st := e.RunUntil(200, func(slot int64) bool { return slot == 120 }); st.Slots != 120 {
		t.Fatalf("stop predicate did not end the second leg at slot 120: %+v", st)
	}
	got := e.Run(1000)

	var wantTrace []traceEvent
	ref := randomRun(t, 9, 300)
	ref.nw.Trace = traceRecorder(&wantTrace)
	re, err := NewEngine(ref.nw, ref.protos)
	if err != nil {
		t.Fatal(err)
	}
	want := re.Run(1000)
	if got != want || !got.Completed {
		t.Fatalf("continued run stats:\n got  %+v\n want %+v", got, want)
	}
	if run.outcome() != ref.outcome() {
		t.Error("continued run observations diverged from one uninterrupted run")
	}
	if fmt.Sprint(trace) != fmt.Sprint(wantTrace) {
		t.Error("continued run trace diverged from one uninterrupted run")
	}
}

func TestInvalidActionKindPanics(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 99)
	bad := &scriptProto{script: []Action{{Kind: Kind(99), Ch: 0}}}
	idle := &scriptProto{script: []Action{{Kind: Idle}}}
	e, err := NewEngine(nw, []Protocol{bad, idle})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid action kind did not panic")
		}
	}()
	e.Run(1)
}

// TestInvalidChannelLabelPanics: a node that listens or broadcasts on
// a local label outside [0, C) must panic, not resolve a neighbor's
// channel. The middle node of a path has rows on both sides of its own
// in the row-major label table, so an unchecked index u·C+l would read
// node u+1's first label (l = C) or node u-1's last (l = -1).
func TestInvalidChannelLabelPanics(t *testing.T) {
	const c = 3
	for kindName, kind := range map[string]Kind{"listen": Listen, "broadcast": Broadcast} {
		for _, ch := range []int{c, -1} {
			t.Run(fmt.Sprintf("%s/label%d", kindName, ch), func(t *testing.T) {
				nw := newTestNetwork(t, graph.Path(3), c, 97)
				idle := func() Protocol { return &scriptProto{script: []Action{{Kind: Idle}}} }
				bad := &scriptProto{script: []Action{{Kind: kind, Ch: ch}}}
				e, err := NewEngine(nw, []Protocol{idle(), bad, idle()})
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if recover() == nil {
						t.Errorf("label %d did not panic", ch)
					}
				}()
				e.Run(1)
			})
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 98)
	p0 := &scriptProto{script: []Action{{Kind: Idle}, {Kind: Idle}}}
	p1 := &scriptProto{script: []Action{{Kind: Idle}, {Kind: Idle}}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Slot() != 0 {
		t.Errorf("Slot() = %d before running", e.Slot())
	}
	e.Run(1)
	if e.Slot() != 1 {
		t.Errorf("Slot() = %d after one slot", e.Slot())
	}
	if got := e.Stats(); got.Idles != 2 {
		t.Errorf("Stats().Idles = %d, want 2", got.Idles)
	}
}

func BenchmarkEngineSlot(b *testing.B) {
	master := rng.New(1)
	g, err := graph.GNP(64, 0.15, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	a, err := chanassign.SharedPool(64, 8, 2, 30, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	nw := &Network{Graph: g, Assign: a}
	protos := make([]Protocol, 64)
	for i := range protos {
		protos[i] = &randomProto{r: master.Split(uint64(i)), c: 8, slots: 1 << 30}
	}
	e, err := NewEngine(nw, protos)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// BenchmarkProtocolInterfaceFloor measures the protocol side of
// BenchmarkEngineSlot alone: Act+Observe+Done on the same 64 rng-driven
// protocols with no engine work at all. The gap between this floor and
// BenchmarkEngineSlot is the engine's true per-slot cost — on this
// workload the floor is a third or more of the slot, which bounds how
// far any kernel optimization can move the headline number.
func BenchmarkProtocolInterfaceFloor(b *testing.B) {
	master := rng.New(1)
	protos := make([]Protocol, 64)
	for i := range protos {
		protos[i] = &randomProto{r: master.Split(uint64(i)), c: 8, slots: 1 << 30}
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range protos {
			if a := p.Act(int64(i)); a.Kind == Broadcast {
				sink++
			}
			p.Observe(int64(i), Delivery{From: -1})
			if p.Done() {
				sink++
			}
		}
	}
	_ = sink
}
