package radio

import (
	"fmt"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// This file locks down the batch engine's one guarantee: every replica
// of a BatchEngine produces byte-identical outcomes — deliveries,
// traces, stats, protocol end states — to running that replica alone
// on an Engine. The sweep facade's batched path is sound
// exactly as far as this holds.

// reactiveTestJammer is a stateful ActivitySink jammer: it jams the
// busiest channel of the previous slot. Each replica must receive its
// own activity feed for this to stay deterministic per replica.
type reactiveTestJammer struct {
	target int32
}

func (j *reactiveTestJammer) Jammed(_ int64, ch int32) bool { return ch == j.target }

func (j *reactiveTestJammer) ObserveActivity(_ int64, byChannel []int) {
	best, bestCount := int32(-1), 0
	for ch, c := range byChannel {
		if c > bestCount {
			best, bestCount = int32(ch), c
		}
	}
	j.target = best
}

// soloRun is one fresh run for checkSoloVsBatch: its network (graph,
// assignment, jammer, feed, trace), its protocols, and a fingerprint
// of everything the run observed (protocol end state, trace).
type soloRun struct {
	nw      *Network
	protos  []Protocol
	outcome func() string
}

// checkSoloVsBatch builds b runs with mk, steps them together as the
// replicas of one BatchEngine, then rebuilds each from scratch and
// runs it alone on an Engine. Every replica's stats and fingerprint
// must equal its solo run's; the batch stats are returned, or the
// first difference. mk must
// build fresh protocols, jammer state and feed on every call, and every
// run must share one graph and assignment.
func checkSoloVsBatch(b int, slots int64, mk func(r int) soloRun) ([]Stats, error) {
	reps := make([]Replica, b)
	runs := make([]soloRun, b)
	for r := range reps {
		runs[r] = mk(r)
		nw := runs[r].nw
		reps[r] = Replica{Protocols: runs[r].protos, Jammer: nw.Jammer, Trace: nw.Trace, Topology: nw.Topology}
	}
	be, err := NewBatchEngine(runs[0].nw.Graph, runs[0].nw.Assign, reps)
	if err != nil {
		return nil, err
	}
	sts := be.Run(slots)
	for r := range runs {
		solo := mk(r)
		e, err := NewEngine(solo.nw, solo.protos)
		if err != nil {
			return nil, err
		}
		if st := e.Run(slots); st != sts[r] {
			return nil, fmt.Errorf("replica %d stats:\n batch %+v\n solo  %+v", r, sts[r], st)
		}
		if got, want := runs[r].outcome(), solo.outcome(); got != want {
			return nil, fmt.Errorf("replica %d outcome diverged:\n batch %s\n solo  %s", r, got, want)
		}
	}
	return sts, nil
}

type traceEvent struct {
	slot     int64
	listener NodeID
	ch       int32
	from     NodeID
}

func traceRecorder(dst *[]traceEvent) TraceFunc {
	return func(slot int64, listener NodeID, ch int32, d Delivery) {
		*dst = append(*dst, traceEvent{slot, listener, ch, d.From})
	}
}

// batchFixture builds the shared network plus per-replica protocol
// sets. Replica r's protocols are seeded from master seed 1000+r and
// given staggered lifetimes so replicas finish at different slots,
// exercising the freeze logic.
func batchFixture(t *testing.T, b int, jam bool) (*graph.Graph, *chanassign.Assignment, func(r int) []Protocol, func() Jammer) {
	t.Helper()
	const n = 24
	g, err := graph.GNP(n, 0.3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedPool(n, 6, 2, 14, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	mkProtos := func(r int) []Protocol {
		master := rng.New(1000 + uint64(r))
		protos := make([]Protocol, n)
		for u := range protos {
			protos[u] = &randomProto{r: master.Split(uint64(u)), c: 6, slots: 120 + 30*r}
		}
		return protos
	}
	mkJammer := func() Jammer {
		if !jam {
			return nil
		}
		return &reactiveTestJammer{target: -1}
	}
	return g, a, mkProtos, mkJammer
}

func TestBatchEngineMatchesSoloEngines(t *testing.T) {
	const b = 5
	for _, jam := range []bool{false, true} {
		t.Run(fmt.Sprintf("jam=%v", jam), func(t *testing.T) {
			g, a, mkProtos, mkJammer := batchFixture(t, b, jam)

			// Batched run.
			reps := make([]Replica, b)
			batchTraces := make([][]traceEvent, b)
			batchProtos := make([][]Protocol, b)
			for r := range reps {
				batchProtos[r] = mkProtos(r)
				reps[r] = Replica{
					Protocols: batchProtos[r],
					Jammer:    mkJammer(),
					Trace:     traceRecorder(&batchTraces[r]),
				}
			}
			be, err := NewBatchEngine(g, a, reps)
			if err != nil {
				t.Fatal(err)
			}
			batchStats := be.Run(10000)

			// Solo reference runs, one Engine per replica.
			for r := 0; r < b; r++ {
				protos := mkProtos(r)
				var soloTrace []traceEvent
				nw := &Network{Graph: g, Assign: a, Jammer: mkJammer(), Trace: traceRecorder(&soloTrace)}
				e, err := NewEngine(nw, protos)
				if err != nil {
					t.Fatal(err)
				}
				soloStats := e.Run(10000)

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
				for u := range protos {
					bh := batchProtos[r][u].(*randomProto).heard
					sh := protos[u].(*randomProto).heard
					if len(bh) != len(sh) {
						t.Fatalf("replica %d node %d: heard %d vs %d", r, u, len(bh), len(sh))
					}
					for i := range sh {
						if bh[i] != sh[i] {
							t.Fatalf("replica %d node %d hear %d: batch From=%d, solo From=%d", r, u, i, bh[i], sh[i])
						}
					}
				}
			}
		})
	}
}

// TestBatchEngineStopPredicate checks the per-replica stop path against
// Engine.RunUntil with the equivalent predicate.
func TestBatchEngineStopPredicate(t *testing.T) {
	const b = 3
	g, a, mkProtos, _ := batchFixture(t, b, false)
	stopAt := func(r int) int64 { return int64(40 + 25*r) }

	reps := make([]Replica, b)
	for r := range reps {
		reps[r] = Replica{Protocols: mkProtos(r)}
	}
	be, err := NewBatchEngine(g, a, reps)
	if err != nil {
		t.Fatal(err)
	}
	batchStats, err := be.RunCtx(nil, 10000, func(r int, slot int64) bool { return slot >= stopAt(r) })
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < b; r++ {
		e, err := NewEngine(&Network{Graph: g, Assign: a}, mkProtos(r))
		if err != nil {
			t.Fatal(err)
		}
		soloStats := e.RunUntil(10000, func(slot int64) bool { return slot >= stopAt(r) })
		if batchStats[r] != soloStats {
			t.Errorf("replica %d stats:\n batch %+v\n solo  %+v", r, batchStats[r], soloStats)
		}
		if batchStats[r].Slots != stopAt(r) {
			t.Errorf("replica %d ran %d slots, want stop at %d", r, batchStats[r].Slots, stopAt(r))
		}
	}
}

// TestBatchEngineValidation covers constructor error paths.
func TestBatchEngineValidation(t *testing.T) {
	g, a, mkProtos, _ := batchFixture(t, 1, false)
	if _, err := NewBatchEngine(nil, a, []Replica{{Protocols: mkProtos(0)}}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewBatchEngine(g, a, nil); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := NewBatchEngine(g, a, []Replica{{Protocols: mkProtos(0)[:3]}}); err == nil {
		t.Error("short protocol set accepted")
	}
}

// TestBatchEngineSteadyStateAllocs asserts a multi-replica slot loop
// allocates nothing once running, like a single run.
func TestBatchEngineSteadyStateAllocs(t *testing.T) {
	const b = 4
	g, a, _, _ := batchFixture(t, b, false)
	n := g.N()
	reps := make([]Replica, b)
	for r := range reps {
		protos := make([]Protocol, n)
		for u := range protos {
			protos[u] = &hotProto{id: u, c: 6}
		}
		reps[r] = Replica{Protocols: protos}
	}
	be, err := NewBatchEngine(g, a, reps)
	if err != nil {
		t.Fatal(err)
	}
	be.Run(64) // warm up scratch
	allocs := testing.AllocsPerRun(50, func() {
		be.Run(be.Slot() + 8)
	})
	if allocs != 0 {
		t.Errorf("steady-state batch slots allocate %.1f times per run, want 0", allocs)
	}
}
