package radio_test

// Dynamics-path allocation contract, from outside the package because
// internal/dynamics imports radio: an engine driven by the production
// churn + edge-flap feeds must allocate nothing per slot in steady
// state, exactly like the static path. This is the regression test for
// the dynamics byte leak — per-slot garbage on the topology path that
// once made dynamic runs allocate on every mutation.

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// dynHotProto is an allocation-free protocol for the dynamics alloc
// and benchmark harnesses (counters only).
type dynHotProto struct {
	id    int
	c     int
	slot  int64
	heard int64
}

func (p *dynHotProto) Act(_ int64) radio.Action {
	switch (p.id + int(p.slot)) % 4 {
	case 0:
		return radio.Action{Kind: radio.Broadcast, Ch: int(p.slot) % p.c}
	case 1, 2:
		return radio.Action{Kind: radio.Listen, Ch: (p.id + int(p.slot)) % p.c}
	default:
		return radio.Action{Kind: radio.Idle}
	}
}

func (p *dynHotProto) Observe(_ int64, d radio.Delivery) {
	if d.From >= 0 {
		p.heard++
	}
	p.slot++
}

func (p *dynHotProto) Done() bool { return false }

func newDynamicsEngine(tb testing.TB, n, c int) *radio.Engine {
	tb.Helper()
	g, err := graph.GNP(n, 0.3, rng.New(21))
	if err != nil {
		tb.Fatal(err)
	}
	a, err := chanassign.Identical(n, c, rng.New(22))
	if err != nil {
		tb.Fatal(err)
	}
	churn, err := dynamics.NewChurn(n, 0.002, 0.05, 4)
	if err != nil {
		tb.Fatal(err)
	}
	flap, err := dynamics.NewEdgeFlap(g.Edges(), 0.005, 0.1, 5)
	if err != nil {
		tb.Fatal(err)
	}
	protos := make([]radio.Protocol, n)
	for i := range protos {
		protos[i] = &dynHotProto{id: i, c: c}
	}
	e, err := radio.NewEngine(&radio.Network{
		Graph:    g,
		Assign:   a,
		Topology: dynamics.Compose(churn, flap),
	}, protos)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestEngineDynamicsZeroAllocsPerSlot: the dynamic-topology engine's
// steady state allocates nothing per slot — churn transitions, edge
// flaps (adjacency insert/remove on the mutable clone) and the
// partition-loss counterfactual all run on pre-sized state.
func TestEngineDynamicsZeroAllocsPerSlot(t *testing.T) {
	const n, c = 32, 4
	e := newDynamicsEngine(t, n, c)
	target := int64(0)
	step := func() {
		target += 200
		e.Run(target)
	}
	// Warm up: long enough for churn and flap events to have fired.
	for i := 0; i < 10; i++ {
		step()
	}
	if st := e.Stats(); st.NodeLeaves == 0 || st.EdgeRemoves == 0 {
		t.Fatalf("warmup saw no topology events, nothing exercised: %+v", st)
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("dynamics engine allocates %.2f/200 slots in steady state, want 0", avg)
	}
}

// BenchmarkEngineSlotDynamics is BenchmarkEngineSlot's dynamic-topology
// sibling on the same 64-node crnbench topology: churn + link flapping
// active every slot. The ratio of this to the static benchmark is the
// dynamics overhead the engine/slot-dynamics crnbench entry gates.
func BenchmarkEngineSlotDynamics(b *testing.B) {
	g, err := graph.GNP(64, 0.15, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	a, err := chanassign.SharedPool(64, 8, 2, 30, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	churn, err := dynamics.NewChurn(64, 0.002, 0.05, 4)
	if err != nil {
		b.Fatal(err)
	}
	flap, err := dynamics.NewEdgeFlap(g.Edges(), 0.005, 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	protos := make([]radio.Protocol, 64)
	for i := range protos {
		protos[i] = &dynHotProto{id: i, c: 8}
	}
	e, err := radio.NewEngine(&radio.Network{
		Graph:    g,
		Assign:   a,
		Topology: dynamics.Compose(churn, flap),
	}, protos)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}
