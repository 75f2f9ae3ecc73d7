package radio

import (
	"fmt"
	"testing"

	"crn/internal/graph"
	"crn/internal/rng"
)

func TestDelayedIdlesBeforeStart(t *testing.T) {
	inner := &scriptProto{script: []Action{
		{Kind: Broadcast, Ch: 0},
	}}
	d := &Delayed{Start: 3, Inner: inner}
	for slot := int64(0); slot < 3; slot++ {
		if a := d.Act(slot); a.Kind != Idle {
			t.Fatalf("slot %d: kind %v, want Idle", slot, a.Kind)
		}
		d.Observe(slot, Delivery{From: -1})
		if d.Done() {
			t.Fatal("done before start")
		}
	}
	if inner.pos != 0 {
		t.Fatal("inner protocol consumed slots before start")
	}
	if a := d.Act(3); a.Kind != Broadcast {
		t.Fatalf("post-start kind %v, want Broadcast", a.Kind)
	}
	d.Observe(3, Delivery{From: -1})
	if !d.Done() {
		t.Error("not done after inner finished")
	}
}

func TestDelayedPreStartObservationsDropped(t *testing.T) {
	inner := &scriptProto{script: []Action{{Kind: Listen, Ch: 0}}}
	d := &Delayed{Start: 2, Inner: inner}
	// A stray pre-start Observe must not reach the inner protocol.
	d.Observe(0, Delivery{From: 9})
	if len(inner.heard) != 0 {
		t.Error("pre-start observation leaked to inner protocol")
	}
}

func TestDelayedZeroStartIsTransparent(t *testing.T) {
	inner := &scriptProto{script: []Action{{Kind: Idle}}}
	d := &Delayed{Start: 0, Inner: inner}
	if a := d.Act(0); a.Kind != Idle {
		t.Fatalf("kind %v", a.Kind)
	}
	d.Observe(0, Delivery{From: -1})
	if !d.Done() {
		t.Error("zero-start Delayed did not finish with inner")
	}
}

// TestDelayedEndToEnd staggers a two-node ping exchange: the listener
// starts 5 slots late, the broadcaster transmits every slot; the
// listener must still hear the frames that fall inside its awake
// window, and only those.
func TestDelayedEndToEnd(t *testing.T) {
	g := graph.Path(2)
	nw := newTestNetwork(t, g, 1, 77)
	var slots []int64
	nw.Trace = func(slot int64, listener NodeID, _ int32, d Delivery) {
		if listener != 1 || d.From != 0 {
			t.Errorf("slot %d: trace saw listener %d hear %d", slot, listener, d.From)
		}
		slots = append(slots, slot)
	}

	bScript := make([]Action, 10)
	for i := range bScript {
		bScript[i] = Action{Kind: Broadcast, Ch: 0}
	}
	lScript := make([]Action, 3)
	for i := range lScript {
		lScript[i] = Action{Kind: Listen, Ch: 0}
	}
	b := &scriptProto{script: bScript}
	l := &scriptProto{script: lScript}
	e, err := NewEngine(nw, []Protocol{b, &Delayed{Start: 5, Inner: l}})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(20)
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if len(l.heard) != 3 {
		t.Fatalf("listener observed %d slots, want 3", len(l.heard))
	}
	for i, d := range l.heard {
		if d.From != 0 {
			t.Fatalf("observation %d: heard %d, want node 0", i, d.From)
		}
	}
	// The listener's slot i is engine slot 5+i.
	if fmt.Sprint(slots) != "[5 6 7]" {
		t.Errorf("deliveries at engine slots %v, want [5 6 7]", slots)
	}
}

// delayedChatter is a never-finishing random protocol for the
// batch-equivalence tests, summarizing its delivery history.
type delayedChatter struct {
	r     *rng.Source
	c     int
	heard []NodeID
}

func (p *delayedChatter) Act(_ int64) Action {
	switch p.r.Intn(3) {
	case 0:
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c)}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (p *delayedChatter) Observe(_ int64, d Delivery) {
	if d.From >= 0 {
		p.heard = append(p.heard, d.From)
	}
}

func (p *delayedChatter) Done() bool { return false }

// TestDelayedParallelMatchesSequential: networks of staggered-start
// protocols (one Delayed wrapper per node, starts spread across the
// run, offset per replica) produce identical stats and per-node
// delivery histories as replicas of one BatchEngine and as solo runs.
func TestDelayedParallelMatchesSequential(t *testing.T) {
	const n, c, slots = 24, 3, 600
	g, err := graph.GNP(n, 0.3, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	nw := newTestNetwork(t, g, c, 99)
	sts, err := checkSoloVsBatch(3, slots, func(r int) soloRun {
		master := rng.New(8 + uint64(r))
		inner := make([]*delayedChatter, n)
		protos := make([]Protocol, n)
		for u := 0; u < n; u++ {
			inner[u] = &delayedChatter{r: master.Split(uint64(u)), c: c}
			// Stagger starts 0, 7, 14, ... so some nodes wake mid-run.
			protos[u] = &Delayed{Start: int64(u*7 + r), Inner: inner[u]}
		}
		return soloRun{nw: &Network{Graph: g, Assign: nw.Assign}, protos: protos, outcome: func() string {
			fp := ""
			for u, p := range inner {
				fp += fmt.Sprintf("%d:%v;", u, p.heard)
			}
			return fp
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-start slots are engine Idles: the late starters idle through
	// 7u+r slots each.
	if sts[0].Deliveries == 0 || sts[0].Idles == 0 {
		t.Fatalf("staggered workload degenerate: %+v", sts[0])
	}
}

// TestDelayedFiniteParallelCompletion: Delayed wrappers around finite
// scripts complete as BatchEngine replicas exactly as they do solo,
// including the started/Done interplay (a never-started Delayed must
// not report done).
func TestDelayedFiniteParallelCompletion(t *testing.T) {
	const n = 8
	g := graph.Path(n)
	nw := newTestNetwork(t, g, 1, 5)
	mk := func() []Protocol {
		protos := make([]Protocol, n)
		for u := 0; u < n; u++ {
			script := make([]Action, 4)
			for i := range script {
				if u%2 == 0 {
					script[i] = Action{Kind: Broadcast, Ch: 0}
				} else {
					script[i] = Action{Kind: Listen, Ch: 0}
				}
			}
			protos[u] = &Delayed{Start: int64(3 * u), Inner: &scriptProto{script: script}}
		}
		return protos
	}
	// The last starter wakes at 3(n-1) and needs 4 slots; one budget
	// slot short of that, no replica may report completion.
	for _, budget := range []int64{3*(n-1) + 3, 3*(n-1) + 4 + 1} {
		e, err := NewEngine(nw, mk())
		if err != nil {
			t.Fatal(err)
		}
		want := budget > 3*(n-1)+3
		if st := e.Run(budget); st.Completed != want {
			t.Errorf("budget %d: solo Completed = %v, want %v: %+v", budget, st.Completed, want, st)
		}
		be, err := NewBatchEngine(g, nw.Assign, []Replica{{Protocols: mk()}, {Protocols: mk()}, {Protocols: mk()}})
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range be.Run(budget) {
			if st.Completed != want {
				t.Errorf("budget %d: replica %d Completed = %v, want %v: %+v", budget, r, st.Completed, want, st)
			}
		}
	}
}
