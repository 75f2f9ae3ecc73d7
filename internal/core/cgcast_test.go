package core

import (
	"fmt"
	"sync"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// buildBroadcastNet assembles a network plus normalized params and D.
func buildBroadcastNet(t *testing.T, g *graph.Graph, a *chanassign.Assignment) (*radio.Network, Params, int) {
	t.Helper()
	k, kmax := a.OverlapRange(g)
	p := Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	return &radio.Network{Graph: g, Assign: a}, p, d
}

func runCGCast(t *testing.T, g *graph.Graph, a *chanassign.Assignment, mode BroadcastMode, seed uint64) *BroadcastResult {
	t.Helper()
	nw, p, d := buildBroadcastNet(t, g, a)
	res, err := RunCGCast(nw, BroadcastConfig{
		Params:  p,
		D:       d,
		Source:  0,
		Message: "payload",
		Mode:    mode,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertAllInformed(t *testing.T, res *BroadcastResult) {
	t.Helper()
	for u, inf := range res.Informed {
		if !inf {
			t.Errorf("node %d uninformed", u)
		}
	}
	if res.AllInformedAt < 0 {
		t.Error("AllInformedAt = -1")
	}
}

func TestCGCastAbstractPath(t *testing.T) {
	g := graph.Path(8)
	a, err := chanassign.SharedCore(8, 3, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res := runCGCast(t, g, a, ExchangeAbstract, 42)
	assertAllInformed(t, res)
	if !res.ColoringValid {
		t.Error("invalid edge coloring")
	}
	if res.EdgesDropped != 0 {
		t.Errorf("%d edges dropped", res.EdgesDropped)
	}
	if res.EdgesColored != g.M() {
		t.Errorf("colored %d of %d edges", res.EdgesColored, g.M())
	}
}

func TestCGCastAbstractClusterChain(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g, err := graph.ClusterChain(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(g.N(), 4, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res := runCGCast(t, g, a, ExchangeAbstract, 43)
	assertAllInformed(t, res)
	if !res.ColoringValid {
		t.Error("invalid edge coloring")
	}
}

func TestCGCastAbstractStar(t *testing.T) {
	g := graph.Star(10)
	a, err := chanassign.SharedCore(10, 3, 1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res := runCGCast(t, g, a, ExchangeAbstract, 44)
	assertAllInformed(t, res)
	if !res.ColoringValid {
		t.Error("invalid edge coloring")
	}
}

func TestCGCastAbstractHeterogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g, err := graph.GNP(14, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.Heterogeneous(g, 8, 2, 5, 0.4, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	res := runCGCast(t, g, a, ExchangeAbstract, 45)
	assertAllInformed(t, res)
	if !res.ColoringValid {
		t.Error("invalid edge coloring")
	}
}

// TestCGCastFullSmall runs the whole pipeline — including every CSEEK
// exchange — inside the radio model on a small instance.
func TestCGCastFullSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-fidelity test")
	}
	g := graph.Path(4)
	a, err := chanassign.SharedCore(4, 3, 2, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res := runCGCast(t, g, a, ExchangeFull, 46)
	assertAllInformed(t, res)
	if !res.ColoringValid {
		t.Error("invalid edge coloring")
	}
	if res.EdgesDropped != 0 {
		t.Errorf("%d edges dropped in full mode", res.EdgesDropped)
	}
}

// TestCGCastFullMobilitySchedulesBaseEdges runs full fidelity while
// nodes move: the CSEEK exchanges then hear pairs the base graph does
// not connect. The session is built over the base graph's edges, so
// every node schedules exactly its colored base edges.
func TestCGCastFullMobilitySchedulesBaseEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-fidelity test")
	}
	g, geom, err := graph.UnitDiskGeometry(10, 0.45, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(10, 3, 2, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, _ := buildBroadcastNet(t, g, a)
	if nw.Topology, err = dynamics.NewRandomWaypoint(geom, 0.004, 4, 23); err != nil {
		t.Fatal(err)
	}
	s, err := PrepareCGCast(nw, SessionConfig{Params: p, Mode: ExchangeFull, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var res BroadcastResult
	s.fillColoringStats(&res)
	if !res.ColoringValid || res.EdgesColored == 0 {
		t.Fatalf("coloring valid=%v colored=%d", res.ColoringValid, res.EdgesColored)
	}
	entries := 0
	colors := 2 * s.p.Delta
	for u := 0; u < s.n; u++ {
		k := 0
		for _, ch := range s.schedule[u*colors : (u+1)*colors] {
			if ch >= 0 {
				k++
			}
		}
		if k > g.Degree(u) {
			t.Errorf("node %d schedules %d colors, base degree %d", u, k, g.Degree(u))
		}
		entries += k
	}
	if entries != 2*res.EdgesColored {
		t.Errorf("schedules hold %d entries for %d colored edges", entries, res.EdgesColored)
	}
}

// TestCGCastModesChargeIdenticalSlots asserts the DESIGN.md contract:
// abstract mode charges exactly the slot budget full mode consumes.
func TestCGCastModesChargeIdenticalSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-fidelity test")
	}
	g := graph.Path(4)
	a, err := chanassign.SharedCore(4, 3, 2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	full := runCGCast(t, g, a, ExchangeFull, 47)
	abs := runCGCast(t, g, a, ExchangeAbstract, 47)
	if full.SetupSlots != abs.SetupSlots {
		t.Errorf("setup slots differ: full %d vs abstract %d", full.SetupSlots, abs.SetupSlots)
	}
	if full.DissemScheduleSlots != abs.DissemScheduleSlots {
		t.Errorf("dissemination slots differ: full %d vs abstract %d",
			full.DissemScheduleSlots, abs.DissemScheduleSlots)
	}
}

func TestCGCastConfigValidation(t *testing.T) {
	g := graph.Path(4)
	a, err := chanassign.SharedCore(4, 3, 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, d := buildBroadcastNet(t, g, a)
	if _, err := RunCGCast(nw, BroadcastConfig{Params: p, D: 0, Source: 0}); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := RunCGCast(nw, BroadcastConfig{Params: p, D: d, Source: 99}); err == nil {
		t.Error("out-of-range source accepted")
	}
	bad := p
	bad.K = 0
	if _, err := RunCGCast(nw, BroadcastConfig{Params: bad, D: d, Source: 0}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestCGCastDeterminism(t *testing.T) {
	g := graph.Path(6)
	a, err := chanassign.SharedCore(6, 3, 2, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	r1 := runCGCast(t, g, a, ExchangeAbstract, 123)
	r2 := runCGCast(t, g, a, ExchangeAbstract, 123)
	if r1.TotalSlots != r2.TotalSlots || r1.AllInformedAt != r2.AllInformedAt ||
		r1.EdgesColored != r2.EdgesColored {
		t.Errorf("identical seeds diverged: %+v vs %+v", r1, r2)
	}
}

// TestCGCastDissemScheduleShape pins the Theorem 9 dissemination cost:
// D phases × 2Δ steps × Θ(lg n) rounds × lg Δ slots.
func TestCGCastDissemScheduleShape(t *testing.T) {
	g := graph.Path(8)
	a, err := chanassign.SharedCore(8, 3, 2, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, d := buildBroadcastNet(t, g, a)
	res, err := RunCGCast(nw, BroadcastConfig{Params: p, D: d, Source: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rounds := scaledSteps(p.Tuning.DissemRounds, 1, p.LgN())
	want := int64(d) * int64(2*p.Delta) * int64(rounds) * int64(p.LgDelta())
	if res.DissemScheduleSlots != want {
		t.Errorf("dissemination schedule %d slots, want %d", res.DissemScheduleSlots, want)
	}
}

func TestFloodInformsPath(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.Path(6)
	a, err := chanassign.SharedCore(6, 3, 2, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, d := buildBroadcastNet(t, g, a)
	doneAt, all, err := RunFlood(nw, p, d, 0, "m", 99)
	if err != nil {
		t.Fatal(err)
	}
	if !all {
		t.Fatal("flooding left nodes uninformed")
	}
	if doneAt <= 0 {
		t.Errorf("doneAt = %d, want > 0", doneAt)
	}
}

func TestFloodValidation(t *testing.T) {
	p := Params{N: 4, C: 3, K: 1, KMax: 1, Delta: 2}
	r := rng.New(1)
	if _, err := NewFlood(p, Env{C: 2, Rand: r}, 1, false, nil); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := NewFlood(p, Env{C: 3, Rand: r}, 0, false, nil); err == nil {
		t.Error("D=0 accepted")
	}
	g := graph.Path(4)
	a, err := chanassign.SharedCore(4, 3, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunFlood(&radio.Network{Graph: g, Assign: a}, p, 1, 99, nil, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestDissemProtoStepLatching checks a node that learns the message
// mid-step starts broadcasting only at the next step boundary.
func TestDissemProtoStepLatching(t *testing.T) {
	p := Params{N: 5, C: 2, K: 1, KMax: 1, Delta: 4}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Two nodes, eight colors; node 1 has channels for colors 0 and 1.
	schedule := []int32{
		0, 1, -1, -1, -1, -1, -1, -1,
		0, 1, -1, -1, -1, -1, -1, -1,
	}
	run := newDissemRun(p, schedule, 1, 0, "x", 1)
	dp := &run.nodes[1]
	// Slot 0: uninformed, must listen.
	a := dp.Act(0)
	if a.Kind != radio.Listen {
		t.Fatalf("slot 0 kind = %v, want Listen", a.Kind)
	}
	// Deliver the message mid-step.
	dp.Observe(0, radio.Delivery{From: 0, Data: run.frame})
	if !dp.informed {
		t.Fatal("message not absorbed")
	}
	// Remaining slots of this step must still listen (latched role).
	perStep := run.perStep
	for s := int64(1); s < perStep; s++ {
		a := dp.Act(s)
		if a.Kind == radio.Broadcast {
			t.Fatalf("broadcast at slot %d before step boundary", s)
		}
		dp.Observe(s, radio.Delivery{From: -1})
	}
	// Next step: the node may now broadcast; sample many acts and
	// require at least one broadcast attempt.
	sawBroadcast := false
	for s := perStep; s < 2*perStep; s++ {
		if dp.Act(s).Kind == radio.Broadcast {
			sawBroadcast = true
		}
		dp.Observe(s, radio.Delivery{From: -1})
	}
	if !sawBroadcast {
		t.Error("informed node never attempted broadcast in its step")
	}
}

// TestCGCastConcurrentRunsMatchSequential: setups, sessions and
// disseminations reuse pooled tables across runs, so runs on instances
// of different sizes, on several goroutines at once, must each match
// the same run made alone — for whole RunCGCast runs and for
// concurrent disseminations over one shared session.
func TestCGCastConcurrentRunsMatchSequential(t *testing.T) {
	type instance struct {
		nw *radio.Network
		p  Params
		d  int
	}
	var insts []instance
	for i, g := range []*graph.Graph{graph.Path(8), graph.Star(10), graph.Complete(6)} {
		a, err := chanassign.SharedCore(g.N(), 3, 2, rng.New(uint64(90+i)))
		if err != nil {
			t.Fatal(err)
		}
		nw, p, d := buildBroadcastNet(t, g, a)
		insts = append(insts, instance{nw, p, d})
	}
	grid, err := graph.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(16, 4, 2, rng.New(94))
	if err != nil {
		t.Fatal(err)
	}
	nw, p, d := buildBroadcastNet(t, grid, a)
	insts = append(insts, instance{nw, p, d})

	const seeds = 3
	run := func(i int, seed uint64) string {
		in := insts[i]
		res, err := RunCGCast(in.nw, BroadcastConfig{Params: in.p, D: in.d, Source: 0, Message: "m", Seed: seed})
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprintf("%+v", *res)
	}
	want := make([][seeds]string, len(insts))
	for i := range insts {
		for s := range seeds {
			want[i][s] = run(i, uint64(s+1))
		}
	}
	session, err := PrepareCGCast(nw, SessionConfig{Params: p, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	disseminate := func(seed uint64) string {
		res, err := session.Disseminate(d, 3, "m", seed)
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprintf("%+v", *res)
	}
	var wantDissem [seeds]string
	for s := range seeds {
		wantDissem[s] = disseminate(uint64(s + 1))
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks the runs in its own order, so tables
			// sized for one instance are reused by another.
			for k := range len(insts) * seeds {
				j := (k*(w+1) + w) % (len(insts) * seeds)
				i, s := j/seeds, j%seeds
				if got := run(i, uint64(s+1)); got != want[i][s] {
					t.Errorf("worker %d: instance %d seed %d diverged:\n got %s\nwant %s", w, i, s+1, got, want[i][s])
				}
				if got := disseminate(uint64(s + 1)); got != wantDissem[s] {
					t.Errorf("worker %d: session dissemination seed %d diverged:\n got %s\nwant %s", w, s+1, got, wantDissem[s])
				}
			}
		}()
	}
	wg.Wait()
}
