package radio

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file enforces the engine's performance contract: once a run is
// warmed up, stepping slots allocates nothing — deliveries ride the
// reused Delivery and Message scratch, and the channel index lives in
// pre-sized engine scratch.

// hotProto is a zero-allocation protocol for alloc regression tests:
// its broadcast frame is pre-boxed, and it records only counters.
type hotProto struct {
	id     int
	c      int
	frame  any // pre-boxed payload
	slot   int64
	heard  int64
	misses int64
}

func (p *hotProto) Act(_ int64) Action {
	// Deterministic mix exercising every resolution path: rotate
	// roles by node id and slot.
	switch (p.id + int(p.slot)) % 4 {
	case 0:
		return Action{Kind: Broadcast, Ch: int(p.slot) % p.c, Data: p.frame}
	case 1, 2:
		return Action{Kind: Listen, Ch: (p.id + int(p.slot)) % p.c}
	default:
		return Action{Kind: Idle}
	}
}

func (p *hotProto) Observe(_ int64, msg *Message) {
	if msg != nil {
		p.heard++
	} else {
		p.misses++
	}
	p.slot++
}

func (p *hotProto) Done() bool { return false }

func allocNetwork(t testing.TB, n, c int, jam Jammer) *Network {
	t.Helper()
	g, err := graph.GNP(n, 0.4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Identical(n, c, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	return &Network{Graph: g, Assign: a, Jammer: jam}
}

func newHotEngine(t testing.TB, nw *Network, n, c int) *Engine {
	t.Helper()
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &hotProto{id: i, c: c, frame: i}
	}
	e, err := NewEngine(nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineRunZeroAllocsPerSlot asserts a per-node protocol set's
// steady state allocates nothing per slot, across delivery, collision,
// silence and jammed paths.
func TestEngineRunZeroAllocsPerSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		jam  Jammer
	}{
		{"clear", nil},
		{"jammed", parityJammer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, c = 24, 3
			e := newHotEngine(t, allocNetwork(t, n, c, tc.jam), n, c)
			target := int64(0)
			step := func() {
				target += 50
				e.Run(target)
			}
			step() // warm up scratch growth
			if avg := testing.AllocsPerRun(20, step); avg != 0 {
				t.Errorf("per-node engine allocates %.2f/50 slots in steady state, want 0", avg)
			}
			if st := e.Stats(); st.Deliveries == 0 || st.Collisions == 0 {
				t.Fatalf("workload did not exercise delivery+collision paths: %+v", st)
			}
		})
	}
}
