package radio

import (
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// panicObserve wraps a protocol whose Observe panics at slot at: the
// engine is left mid-slot, with deliveries written and not yet reset.
type panicObserve struct {
	Protocol
	at int64
}

func (p panicObserve) Observe(slot int64, d Delivery) {
	if slot == p.at {
		panic("observe")
	}
	p.Protocol.Observe(slot, d)
}

// TestEnginePinnedAfterRelease: an engine takes its per-slot scratch
// from the pool that Release fills, so each pinned single-engine run
// here follows a released engine of another size and must still
// produce its pinned digest. The engine before it is either larger (64
// nodes over 16 channels, its scratch left holding deliveries, channel
// rows and activity counts past the pinned run's sizes) or one that a
// panicking protocol stopped mid-slot, released by a deferred Release.
// After Release an engine keeps its Slot and Stats, a second Release
// does nothing, and a further run panics.
func TestEnginePinnedAfterRelease(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, slots = 24, 5, 300
	bg, err := graph.GNP(64, 0.3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := chanassign.SharedPool(64, 8, 2, 16, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	larger := func() {
		protos, _ := pinSet("bank", 64, 8, 11)
		e, err := NewEngine(&Network{Graph: bg, Assign: ba, Jammer: &reactiveTestJammer{target: -1}}, protos)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(50)
		e.Release()
	}
	midSlot := func() {
		protos, _ := pinSet("node", n, c, 12)
		protos[3] = panicObserve{protos[3], 20}
		e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("the protocol did not panic")
			}
		}()
		defer e.Release()
		e.Run(slots)
	}
	i := 0
	for _, pc := range pinCases() {
		for _, set := range []string{"node", "bank", "delayed"} {
			key := pc.name + "/" + set
			if i++; i%2 == 0 {
				larger()
			} else {
				midSlot()
			}
			var trace []pinEvent
			protos, views := pinSet(set, n, c, 1)
			e, err := NewEngine(&Network{
				Graph: g, Assign: a, Jammer: pc.jammer(),
				Topology: pc.topology(g, 0x5EED), Trace: pinRecorder(&trace),
			}, protos)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Run(slots)
			if got, want := pinDigest(st, trace, views), pinnedDigests[key][0]; got != want {
				t.Errorf("%s: digest %s after a released engine, pinned %s", key, got, want)
			}
			e.Release()
			e.Release()
			if e.Slot() != st.Slots || e.Stats() != st {
				t.Errorf("%s: after Release, slot %d and stats %+v; the run ended at %d with %+v", key, e.Slot(), e.Stats(), st.Slots, st)
			}
		}
	}
	protos, _ := pinSet("node", n, c, 1)
	e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	defer func() {
		if recover() == nil {
			t.Error("a run after Release did not panic")
		}
	}()
	e.Run(1)
}
