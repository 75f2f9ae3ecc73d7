package radio

import (
	"testing"

	"crn/internal/graph"
	"crn/internal/spectrum"
)

// recordingSink captures every activity report the engine feeds.
type recordingSink struct {
	None // never jams; only listens to activity
	got  [][]int
}

func (r *recordingSink) ObserveActivity(_ int64, counts []int) {
	cp := make([]int, len(counts))
	copy(cp, counts)
	r.got = append(r.got, cp)
}

// None re-exported to keep the test jammer tiny.
type None = spectrum.None

func TestEngineFeedsActivityPerSlot(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 41)
	sink := &recordingSink{}
	nw.Jammer = sink

	// Slot 0: node 0 broadcasts on global 0, node 1 listens (listens
	// never count as activity). Slot 1: both broadcast, different
	// channels.
	p0 := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 1)},
	}}
	p1 := &scriptProto{script: []Action{
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 1, 0)},
	}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(sink.got) < 2 {
		t.Fatalf("sink saw %d reports, want >= 2", len(sink.got))
	}
	if sink.got[0][0] != 1 || sink.got[0][1] != 0 {
		t.Errorf("slot 0 activity = %v, want [1 0]", sink.got[0])
	}
	if sink.got[1][0] != 1 || sink.got[1][1] != 1 {
		t.Errorf("slot 1 activity = %v, want [1 1]", sink.got[1])
	}
}

// TestReactiveAdversaryOneSlotDelay verifies the engine-level contract
// the adversary model is built on: a broadcast in slot s draws jamming
// in slot s+1, never in slot s itself.
func TestReactiveAdversaryOneSlotDelay(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 42)
	nw.Jammer = spectrum.NewReactiveAdversary(1)

	// Node 0 broadcasts on global channel 0 twice; node 1 listens there
	// twice. Slot 0 is clear (the adversary has observed nothing);
	// slot 1 is jammed (channel 0 was the busiest channel of slot 0).
	p0 := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)},
	}}
	p1 := &scriptProto{script: []Action{
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
	}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if p1.heard[0].From != 0 {
		t.Errorf("slot 0 delivery lost: adversary must not react within the slot (%v)", p1.heard[0])
	}
	if p1.heard[1].From >= 0 {
		t.Errorf("slot 1 delivered %v, want jammed", p1.heard[1])
	}
	if st.JammedListens != 1 {
		t.Errorf("JammedListens = %d, want 1", st.JammedListens)
	}
}

// TestNetworkTraceFeedsEngine: the Network's trace callback sees every
// delivery as (listener, sender).
func TestNetworkTraceFeedsEngine(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 43)
	var seen int
	nw.Trace = func(slot int64, listener NodeID, ch int32, d Delivery) {
		seen++
		if listener != 1 || d.From != 0 {
			t.Errorf("trace saw listener=%d from=%d", listener, d.From)
		}
	}
	p0 := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)}}}
	p1 := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 1, 0)}}}
	e, err := NewEngine(nw, []Protocol{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if seen != 1 {
		t.Errorf("trace saw %d deliveries, want 1", seen)
	}
}
