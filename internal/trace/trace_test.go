package trace

import (
	"bytes"
	"strings"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// record runs a small CSEEK discovery with a recorder attached.
func record(t *testing.T, seed uint64) *Recorder {
	t.Helper()
	g := graph.Star(5)
	a, err := chanassign.SharedCore(5, 3, 2, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{N: 5, C: 3, K: 2, KMax: 2, Delta: 4}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	master := rng.New(seed + 1)
	protos := make([]radio.Protocol, 5)
	var schedule int64
	for u := 0; u < 5; u++ {
		s, err := core.NewCSeek(p, core.Env{ID: radio.NodeID(u), C: 3, Rand: master.Split(uint64(u))})
		if err != nil {
			t.Fatal(err)
		}
		schedule = s.TotalSlots()
		protos[u] = s
	}
	var rec Recorder
	e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a, Trace: rec.Trace}, protos)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(schedule + 1)
	return &rec
}

func TestRecorderCapturesDeliveries(t *testing.T) {
	rec := record(t, 1)
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	prev := int64(-1)
	for i, ev := range rec.Events() {
		if ev.Slot < prev {
			t.Fatalf("event %d out of slot order", i)
		}
		prev = ev.Slot
		if ev.Listener < 0 || ev.Listener >= 5 || ev.Sender < 0 || ev.Sender >= 5 {
			t.Fatalf("event %d has bad endpoints: %+v", i, ev)
		}
		if ev.Listener == ev.Sender {
			t.Fatalf("event %d: node heard itself", i)
		}
		// On a star every delivery involves the center.
		if ev.Listener != 0 && ev.Sender != 0 {
			t.Fatalf("event %d: leaf-to-leaf delivery on a star: %+v", i, ev)
		}
	}
}

// TestReplayDeterminism is the regression guarantee: identical seeds
// produce byte-identical traces.
func TestReplayDeterminism(t *testing.T) {
	a := record(t, 7)
	b := record(t, 7)
	if !Equal(a.Events(), b.Events()) {
		t.Fatal("same-seed traces differ")
	}
	c := record(t, 8)
	if Equal(a.Events(), c.Events()) {
		t.Fatal("different-seed traces identical")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := record(t, 3)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != rec.Len() {
		t.Errorf("wrote %d lines for %d events", lines, rec.Len())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(rec.Events(), back) {
		t.Error("JSONL round trip mismatch")
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bad json")); err == nil {
		t.Error("malformed input accepted")
	}
	evs, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Errorf("empty input: %v, %d events", err, len(evs))
	}
}

func TestEqual(t *testing.T) {
	a := []Event{{Slot: 1, Listener: 0, Sender: 1, Channel: 2}}
	b := []Event{{Slot: 1, Listener: 0, Sender: 1, Channel: 2}}
	if !Equal(a, b) {
		t.Error("identical streams not equal")
	}
	if Equal(a, nil) {
		t.Error("different lengths equal")
	}
	b[0].Channel = 3
	if Equal(a, b) {
		t.Error("differing events equal")
	}
}
