package core

import (
	"fmt"
	"strings"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// discoveryInstance bundles a generated network with normalized params.
type discoveryInstance struct {
	g  *graph.Graph
	a  *chanassign.Assignment
	p  Params
	nw *radio.Network
}

// buildInstance derives Params from the realized graph/assignment pair.
func buildInstance(t *testing.T, g *graph.Graph, a *chanassign.Assignment) *discoveryInstance {
	t.Helper()
	k, kmax := a.OverlapRange(g)
	p := Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	return &discoveryInstance{g: g, a: a, p: p, nw: &radio.Network{Graph: g, Assign: a}}
}

// runDiscovery runs one Discoverer per node to schedule end and returns
// the protocols.
func runDiscovery(t *testing.T, in *discoveryInstance, mk func(u int, env Env) Discoverer) []Discoverer {
	t.Helper()
	master := rng.New(0xD15C0)
	n := in.g.N()
	ds := make([]Discoverer, n)
	protos := make([]radio.Protocol, n)
	for u := 0; u < n; u++ {
		env := Env{ID: radio.NodeID(u), C: in.p.C, Rand: master.Split(uint64(u))}
		ds[u] = mk(u, env)
		protos[u] = ds[u]
	}
	e, err := radio.NewEngine(in.nw, protos)
	if err != nil {
		t.Fatal(err)
	}
	budget := ds[0].TotalSlots() + 16
	st := e.Run(budget)
	if !st.Completed {
		t.Fatalf("discovery did not complete within its own schedule (%d slots)", budget)
	}
	return ds
}

// assertFullDiscovery checks every node heard every graph neighbor.
func assertFullDiscovery(t *testing.T, in *discoveryInstance, ds []Discoverer) {
	t.Helper()
	missing := 0
	for u := 0; u < in.g.N(); u++ {
		found := make(map[radio.NodeID]bool)
		ids, _ := ds[u].Heard()
		for _, id := range ids {
			found[id] = true
		}
		for _, v := range in.g.Neighbors(u) {
			if !found[radio.NodeID(v)] {
				missing++
				t.Logf("node %d never heard neighbor %d", u, v)
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d (node, neighbor) pairs undiscovered", missing)
	}
}

func TestCSeekTwoNodes(t *testing.T) {
	r := rng.New(1)
	a, err := chanassign.Matching(4, [][2]int{{0, 1}, {2, 3}}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, graph.TwoNode(), a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	assertFullDiscovery(t, in, ds)
}

func TestCSeekSmallRandomNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	for _, seed := range []uint64{1, 2, 3} {
		g, err := graph.GNP(16, 0.3, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		a, err := chanassign.SharedPool(16, 5, 2, 12, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		in := buildInstance(t, g, a)
		ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
			s, err := NewCSeek(in.p, env)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		assertFullDiscovery(t, in, ds)
	}
}

// TestCSeekCrowdedStar exercises part two: with c=2 and Δ=16 = 8c, the
// shared core channel is "crowded" in the Lemma 3 sense, so part one
// alone cannot finish the job at these schedule lengths.
func TestCSeekCrowdedStar(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 17 // center + 16 leaves
	g := graph.Star(n)
	a, err := chanassign.SharedCore(n, 2, 1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	assertFullDiscovery(t, in, ds)
}

func TestCSeekDeterminism(t *testing.T) {
	run := func() []radio.NodeID {
		g := graph.Star(6)
		a, err := chanassign.SharedCore(6, 3, 1, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		in := buildInstance(t, g, a)
		ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
			s, err := NewCSeek(in.p, env)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		out, _ := ds[0].Heard()
		return out
	}
	a1 := run()
	a2 := run()
	if len(a1) != len(a2) {
		t.Fatalf("discovered %d vs %d across identical runs", len(a1), len(a2))
	}
	s1 := make(map[radio.NodeID]bool)
	for _, id := range a1 {
		s1[id] = true
	}
	for _, id := range a2 {
		if !s1[id] {
			t.Fatalf("run 2 discovered %d, run 1 did not", id)
		}
	}
}

// TestCSeekFirstHeardSlot: the table answers FirstHeard with the slot
// Heard reports, inside the run, and nothing for an unknown identity.
func TestCSeekFirstHeardSlot(t *testing.T) {
	r := rng.New(2)
	a, err := chanassign.Matching(3, [][2]int{{0, 0}}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, graph.TwoNode(), a)
	master := rng.New(0xFEED)
	mk := func(u int) *CSeek {
		env := Env{ID: radio.NodeID(u), C: in.p.C, Rand: master.Split(uint64(u))}
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := mk(0), mk(1)
	e, err := radio.NewEngine(in.nw, []radio.Protocol{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Run(s0.TotalSlots() + 1); !st.Completed {
		t.Fatal("did not complete")
	}
	slot, ok := s0.FirstHeard(1)
	if !ok {
		t.Fatal("node 0 never heard node 1")
	}
	if slot < 0 || slot >= s0.TotalSlots() {
		t.Errorf("first-heard slot %d outside run", slot)
	}
	ids, slots := s0.Heard()
	if len(ids) != 1 || ids[0] != 1 || slots[0] != slot {
		t.Errorf("Heard() = %v, %v; want [1], [%d]", ids, slots, slot)
	}
	if _, ok := s0.FirstHeard(99); ok {
		t.Error("FirstHeard found an unknown id")
	}
}

// TestSeekRunMatchesPerNodeMachines: the machines NewSeekRun and
// NewCKSeekRun build in one pass, on range dispatch, end a run exactly
// as NewCSeek/NewCKSeek machines built one at a time end it on per-node
// dispatch: same stats, same tables, same counts. A Δ below the graph's
// real degree makes the tables outgrow their windows.
func TestSeekRunMatchesPerNodeMachines(t *testing.T) {
	const n, seed, stream = 12, 41, 7 << 32
	g, err := graph.GNP(n, 0.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chanassign.SharedCore(n, 3, 2, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	nw := &radio.Network{Graph: g, Assign: a}
	run := func(protos []radio.Protocol, seeks []*CSeek) string {
		e, err := radio.NewEngine(nw, protos)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Run(seeks[0].TotalSlots() + 1)
		out := fmt.Sprintf("range=%v %+v;", e.RangeDispatch(), st)
		for u, s := range seeks {
			ids, slots := s.Heard()
			out += fmt.Sprintf("%d:%v@%v counts=%v;", u, ids, slots, s.Counts())
		}
		return out
	}
	for _, delta := range []int{g.MaxDegree(), 2} {
		p := Params{N: n, C: 3, K: 2, KMax: 2, Delta: delta}
		for _, khat := range []int{0, 2} {
			master := rng.New(seed)
			one := make([]*CSeek, n)
			protos := make([]radio.Protocol, n)
			for u := range one {
				env := Env{ID: radio.NodeID(u), C: p.C, Rand: master.Split(stream | uint64(u))}
				var err error
				if khat == 0 {
					one[u], err = NewCSeek(p, env)
				} else {
					one[u], err = NewCKSeek(p, env, khat, delta)
				}
				if err != nil {
					t.Fatal(err)
				}
				protos[u] = one[u]
			}
			want := run(protos, one)

			var all []*CSeek
			if khat == 0 {
				all, err = NewSeekRun(p, n, rng.New(seed), stream)
			} else {
				all, err = NewCKSeekRun(p, n, khat, delta, rng.New(seed), stream)
			}
			if err != nil {
				t.Fatal(err)
			}
			for u, s := range all {
				protos[u] = s
			}
			got := run(protos, all)
			want = strings.Replace(want, "range=false", "range=true", 1)
			if got != want {
				t.Errorf("Δ=%d k̂=%d: one-pass run diverged:\n run      %s\n per-node %s", delta, khat, got, want)
			}
			if delta == 2 {
				most := 0
				for _, s := range all {
					most = max(most, s.DiscoveredCount())
				}
				if most <= delta {
					t.Errorf("Δ=%d k̂=%d: no table outgrew its window (most heard: %d)", delta, khat, most)
				}
			}
		}
	}
}

func TestCSeekChannelLog(t *testing.T) {
	r := rng.New(3)
	a, err := chanassign.Matching(3, [][2]int{{1, 2}}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, graph.TwoNode(), a)
	master := rng.New(0xBEEF)
	mk := func(u int) *CSeek {
		env := Env{ID: radio.NodeID(u), C: in.p.C, Rand: master.Split(uint64(u))}
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		s.RecordChannels()
		return s
	}
	s0, s1 := mk(0), mk(1)
	e, err := radio.NewEngine(in.nw, []radio.Protocol{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(s0.TotalSlots() + 1)

	// The log covers every slot of the run.
	for _, s := range []*CSeek{s0, s1} {
		for slot := int64(0); slot < s.TotalSlots(); slot++ {
			ch, ok := s.ChannelAt(slot)
			if !ok {
				t.Fatalf("missing channel log entry at slot %d", slot)
			}
			if ch < 0 || int(ch) >= in.p.C {
				t.Fatalf("logged channel %d out of range", ch)
			}
		}
		if _, ok := s.ChannelAt(s.TotalSlots()); ok {
			t.Error("channel log extends past the run")
		}
	}

	// Cross-check the meeting invariant: when 0 first heard 1, both
	// were on the same global channel according to their own logs.
	slot, ok := s0.FirstHeard(1)
	if !ok {
		t.Fatal("node 0 never heard node 1")
	}
	ch0, _ := s0.ChannelAt(slot)
	ch1, _ := s1.ChannelAt(slot)
	g0 := in.a.Global(0, int(ch0))
	g1 := in.a.Global(1, int(ch1))
	if g0 != g1 {
		t.Errorf("at first contact, node 0 on global %d but node 1 on global %d", g0, g1)
	}
}

func TestCSeekCountsAccumulate(t *testing.T) {
	// On a crowded star the center's counts must concentrate on the
	// single shared channel.
	const n = 17
	g := graph.Star(n)
	a, err := chanassign.SharedCore(n, 2, 1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	center := ds[0].(*CSeek)
	counts := center.Counts()
	sharedLocal := in.a.Local(0, 0) // global channel 0 is the core
	other := 1 - int(sharedLocal)
	if counts[sharedLocal] <= counts[other] {
		t.Errorf("counts = %v: shared channel (local %d) not denser than private", counts, sharedLocal)
	}
}

func TestNewCSeekValidation(t *testing.T) {
	p := Params{N: 4, C: 3, K: 1, KMax: 1, Delta: 2}
	r := rng.New(1)
	if _, err := NewCSeek(p, Env{ID: 0, C: 2, Rand: r}); err == nil {
		t.Error("channel-count mismatch accepted")
	}
	if _, err := NewCSeek(p, Env{ID: 0, C: 3, Rand: nil}); err == nil {
		t.Error("nil RNG accepted")
	}
	if _, err := NewCSeek(Params{N: 0, C: 1, K: 1, KMax: 1, Delta: 1}, Env{C: 1, Rand: r}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNewCKSeekValidation(t *testing.T) {
	p := Params{N: 8, C: 6, K: 2, KMax: 4, Delta: 3}
	r := rng.New(1)
	env := Env{ID: 0, C: 6, Rand: r}
	if _, err := NewCKSeek(p, env, 1, 3); err == nil {
		t.Error("k̂ < k accepted")
	}
	if _, err := NewCKSeek(p, env, 5, 3); err == nil {
		t.Error("k̂ > kmax accepted")
	}
	if _, err := NewCKSeek(p, env, 3, 9); err == nil {
		t.Error("Δ_k̂ > Δ accepted")
	}
	if _, err := NewCKSeek(p, env, 3, 2); err != nil {
		t.Errorf("valid CKSEEK rejected: %v", err)
	}
}

// TestCKSeekShorterSchedule asserts the Theorem 6 property that CKSEEK
// with k̂ > k runs strictly shorter than CSEEK on the same instance.
func TestCKSeekShorterSchedule(t *testing.T) {
	p := Params{N: 64, C: 8, K: 1, KMax: 6, Delta: 12}
	r := rng.New(1)
	env := Env{ID: 0, C: 8, Rand: r}
	cs, err := NewCSeek(p, env)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewCKSeek(p, env, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ck.TotalSlots() >= cs.TotalSlots() {
		t.Errorf("CKSEEK schedule %d not shorter than CSEEK %d", ck.TotalSlots(), cs.TotalSlots())
	}
}

// TestCKSeekFindsGoodNeighbors builds a heterogeneous instance and
// checks every node finds all neighbors sharing ≥ k̂ channels.
func TestCKSeekFindsGoodNeighbors(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g, err := graph.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	const c, k, kmax, khat = 8, 1, 4, 4
	a, err := chanassign.Heterogeneous(g, c, k, kmax, 0.5, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)

	// Δ_k̂: max number of neighbors sharing ≥ k̂ channels.
	deltaKhat := 0
	for u := 0; u < g.N(); u++ {
		good := 0
		for _, v := range g.Neighbors(u) {
			if a.SharedCount(u, int(v)) >= khat {
				good++
			}
		}
		if good > deltaKhat {
			deltaKhat = good
		}
	}

	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewCKSeek(in.p, env, khat, deltaKhat)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})

	missing := 0
	for u := 0; u < g.N(); u++ {
		found := make(map[radio.NodeID]bool)
		ids, _ := ds[u].Heard()
		for _, id := range ids {
			found[id] = true
		}
		for _, v := range g.Neighbors(u) {
			if a.SharedCount(u, int(v)) >= khat && !found[radio.NodeID(v)] {
				missing++
				t.Logf("node %d never heard good neighbor %d", u, v)
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d good-neighbor pairs undiscovered", missing)
	}
}

func TestNaiveSeekDiscovers(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.Star(6)
	a, err := chanassign.SharedCore(6, 3, 2, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewNaiveSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	assertFullDiscovery(t, in, ds)
}

func TestUniformSeekDiscovers(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.Star(8)
	a, err := chanassign.SharedCore(8, 4, 2, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstance(t, g, a)
	ds := runDiscovery(t, in, func(u int, env Env) Discoverer {
		s, err := NewUniformSeek(in.p, env)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	assertFullDiscovery(t, in, ds)
}

// TestScheduleShape pins the asymptotic shapes of the three schedule
// lengths: as Δ grows with everything else fixed, CSEEK's additive
// (kmax/k)·Δ term loses to the baselines' multiplicative Δ terms, so
// the baseline/CSEEK ratios must grow monotonically, and in the
// Δ-dominant extreme the ordering is CSEEK < UniformSeek < NaiveSeek.
func TestScheduleShape(t *testing.T) {
	slots := func(delta int, mk func(Params, Env) (int64, error)) int64 {
		p := Params{N: 4096, C: 16, K: 8, KMax: 8, Delta: delta}
		v, err := mk(p, Env{ID: 0, C: 16, Rand: rng.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cseek := func(p Params, env Env) (int64, error) {
		s, err := NewCSeek(p, env)
		if err != nil {
			return 0, err
		}
		return s.TotalSlots(), nil
	}
	uniform := func(p Params, env Env) (int64, error) {
		s, err := NewUniformSeek(p, env)
		if err != nil {
			return 0, err
		}
		return s.TotalSlots(), nil
	}
	naive := func(p Params, env Env) (int64, error) {
		s, err := NewNaiveSeek(p, env)
		if err != nil {
			return 0, err
		}
		return s.TotalSlots(), nil
	}

	deltas := []int{64, 512, 4095}
	var prevNaive, prevUniform float64
	for i, d := range deltas {
		cs := float64(slots(d, cseek))
		rn := float64(slots(d, naive)) / cs
		ru := float64(slots(d, uniform)) / cs
		if i > 0 && (rn <= prevNaive || ru <= prevUniform) {
			t.Errorf("Δ=%d: ratios not increasing (naive %f<=%f, uniform %f<=%f)",
				d, rn, prevNaive, ru, prevUniform)
		}
		prevNaive, prevUniform = rn, ru
	}
	// Δ-dominant extreme: full ordering.
	d := deltas[len(deltas)-1]
	cs, us, ns := slots(d, cseek), slots(d, uniform), slots(d, naive)
	if !(cs < us && us < ns) {
		t.Errorf("Δ=%d ordering violated: CSEEK=%d UniformSeek=%d NaiveSeek=%d", d, cs, us, ns)
	}
}

func TestBaselineValidation(t *testing.T) {
	p := Params{N: 4, C: 3, K: 1, KMax: 1, Delta: 2}
	r := rng.New(1)
	if _, err := NewNaiveSeek(p, Env{C: 2, Rand: r}); err == nil {
		t.Error("NaiveSeek channel mismatch accepted")
	}
	if _, err := NewUniformSeek(p, Env{C: 2, Rand: r}); err == nil {
		t.Error("UniformSeek channel mismatch accepted")
	}
}
