package radio

import (
	"fmt"
	"testing"

	"crn/internal/graph"
)

// stubJammer jams a fixed set of (slot, channel) pairs.
type stubJammer struct {
	jam map[[2]int64]bool
}

func (j *stubJammer) Jammed(slot int64, ch int32) bool {
	return j.jam[[2]int64{slot, int64(ch)}]
}

func TestJammedChannelSilencesListener(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 31)
	nw.Jammer = &stubJammer{jam: map[[2]int64]bool{{0, 0}: true}}

	// Slot 0: broadcast on (jammed) global channel 0 → lost.
	// Slot 1: same broadcast, channel now clear → delivered.
	b := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)},
		{Kind: Broadcast, Ch: localFor(t, nw, 0, 0)},
	}}
	l := &scriptProto{script: []Action{
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
		{Kind: Listen, Ch: localFor(t, nw, 1, 0)},
	}}
	e, err := NewEngine(nw, []Protocol{b, l})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if l.heard[0].From >= 0 {
		t.Error("heard a frame on a jammed channel")
	}
	if l.heard[1].From != 0 {
		t.Errorf("clear-channel frame lost: %v", l.heard[1])
	}
	if st.JammedListens != 1 {
		t.Errorf("JammedListens = %d, want 1", st.JammedListens)
	}
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Deliveries)
	}
}

func TestJammingOnlyAffectsItsChannel(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 2, 32)
	nw.Jammer = &stubJammer{jam: map[[2]int64]bool{{0, 0}: true}}

	// Broadcast and listen on global channel 1 while channel 0 is
	// jammed: delivery must succeed.
	b := &scriptProto{script: []Action{{Kind: Broadcast, Ch: localFor(t, nw, 0, 1)}}}
	l := &scriptProto{script: []Action{{Kind: Listen, Ch: localFor(t, nw, 1, 1)}}}
	e, err := NewEngine(nw, []Protocol{b, l})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(10)
	if l.heard[0].From != 0 {
		t.Errorf("delivery on clear channel failed: %v", l.heard[0])
	}
	if st.JammedListens != 0 {
		t.Errorf("JammedListens = %d, want 0", st.JammedListens)
	}
}

// TestJammingParallelEngineAgrees: one stateless jammer shared by three
// replicas of a BatchEngine jams each exactly as it jams a solo run.
func TestJammingParallelEngineAgrees(t *testing.T) {
	jam := &stubJammer{jam: map[[2]int64]bool{
		{0, 0}: true, {1, 1}: true, {2, 2}: true, {5, 0}: true,
	}}
	g := graph.Star(8)
	nw := newTestNetwork(t, g, 3, 33)
	if _, err := checkSoloVsBatch(3, 100, func(r int) soloRun {
		protos := make([]Protocol, 8)
		sps := make([]*scriptProto, 8)
		for i := range protos {
			script := make([]Action, 12)
			for s := range script {
				if (i+r)%2 == 0 {
					script[s] = Action{Kind: Listen, Ch: (i + s) % 3}
				} else {
					script[s] = Action{Kind: Broadcast, Ch: (i + s + r) % 3}
				}
			}
			sps[i] = &scriptProto{script: script}
			protos[i] = sps[i]
		}
		return soloRun{nw: &Network{Graph: g, Assign: nw.Assign, Jammer: jam}, protos: protos, outcome: func() string {
			out := ""
			for _, sp := range sps {
				for _, m := range sp.heard {
					out += fmt.Sprintf("%v,", m)
				}
				out += ";"
			}
			return out
		}}
	}); err != nil {
		t.Fatal(err)
	}
}
