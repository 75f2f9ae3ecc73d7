package crn

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// TestNewScenarioValidation: the generator behind New refuses each
// malformed config before it builds anything.
func TestNewScenarioValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  scenarioConfig
	}{
		{name: "too few nodes", cfg: scenarioConfig{N: 1, C: 3, K: 1}},
		{name: "too many nodes", cfg: scenarioConfig{N: maxNodes + 1, C: 3, K: 1}},
		// c = 8 makes a branching-7 tree: the smallest one reaching 8000
		// nodes has 19 608.
		{name: "tree over the bound", cfg: scenarioConfig{Topology: Tree, N: 8000, C: 8, K: 1}},
		{name: "no channels", cfg: scenarioConfig{N: 4, C: 0, K: 0}},
		{name: "k over c", cfg: scenarioConfig{N: 4, C: 2, K: 3}},
		{name: "kmax under k", cfg: scenarioConfig{N: 4, C: 4, K: 3, KMax: 2}},
		{name: "bad topology", cfg: scenarioConfig{Topology: "donut", N: 4, C: 2, K: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := newGeneratedScenario(tt.cfg); err == nil {
				t.Errorf("newGeneratedScenario(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

// TestScenarioNodeBoundBuilds: the node bound is inclusive, so a
// scenario of exactly maxNodes nodes still builds.
func TestScenarioNodeBoundBuilds(t *testing.T) {
	s, err := New(WithTopology(Regular), WithNodes(maxNodes), WithChannels(4, 2, 0), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != maxNodes {
		t.Errorf("N = %d, want %d", s.N(), maxNodes)
	}
}

func TestNewScenarioTopologies(t *testing.T) {
	for _, topo := range []Topology{GNP, Star, Path, Grid, Chain, Tree, UnitDisk} {
		t.Run(string(topo), func(t *testing.T) {
			s, err := New(WithTopology(topo), WithNodes(12), WithChannels(4, 2, 0), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if s.N() < 2 {
				t.Errorf("N = %d", s.N())
			}
			if s.K() < 1 {
				t.Errorf("K = %d", s.K())
			}
			if s.Diameter() < 1 {
				t.Errorf("D = %d", s.Diameter())
			}
			if s.String() == "" {
				t.Error("empty String()")
			}
		})
	}
}

func TestDiscoverCSeek(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(GNP), WithNodes(14), WithChannels(5, 2, 0), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discovery(CSeek).Run(context.Background(), s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Discovery; !d.AllDiscovered() {
		t.Errorf("discovered %d/%d pairs", d.PairsDiscovered, d.PairsTotal)
	}
	if res.CompletedAtSlot < 0 || res.CompletedAtSlot > res.ScheduleSlots {
		t.Errorf("CompletedAtSlot = %d outside [0,%d]", res.CompletedAtSlot, res.ScheduleSlots)
	}
	if res.Discovery.Algorithm != "cseek" {
		t.Errorf("Algorithm = %q", res.Discovery.Algorithm)
	}
}

func TestDiscoverDefaultsToCSeek(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(6), WithChannels(3, 2, 0), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discovery("").Run(context.Background(), s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discovery.Algorithm != "cseek" {
		t.Errorf("Algorithm = %q, want cseek", res.Discovery.Algorithm)
	}
}

func TestDiscoverUnknownAlgorithm(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(6), WithChannels(3, 2, 0), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discovery("magic").Run(context.Background(), s, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDiscoverBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(Star), WithNodes(8), WithChannels(4, 2, 0), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Naive, Uniform} {
		res, err := Discovery(algo).Run(context.Background(), s, 11)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Discovery; !d.AllDiscovered() {
			t.Errorf("%s: discovered %d/%d", algo, d.PairsDiscovered, d.PairsTotal)
		}
	}
}

func TestDiscoverK(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(GNP), WithNodes(14), WithChannels(10, 2, 6), WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := KDiscovery(s.KMax()).Run(ctx, s, 13)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Discovery
	if d.PairsTotal == 0 {
		t.Fatal("no good pairs in heterogeneous scenario")
	}
	if !d.AllDiscovered() {
		t.Errorf("found %d/%d good pairs", d.PairsDiscovered, d.PairsTotal)
	}
	if _, err := KDiscovery(1).Run(ctx, s, 13); err == nil {
		t.Error("k̂ below k accepted")
	}
	if _, err := KDiscovery(s.C()+1).Run(ctx, s, 13); err == nil {
		t.Error("k̂ above kmax accepted")
	}
}

func TestBroadcastAndFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(Chain), WithNodes(16), WithChannels(4, 2, 0), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := GlobalBroadcast(0, "hello").Run(ctx, s, 17)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Broadcast
	if !b.AllInformed {
		t.Error("CGCAST left nodes uninformed")
	}
	if !b.ColoringValid {
		t.Error("coloring invalid")
	}
	if res.ScheduleSlots != b.SetupSlots+b.DissemScheduleSlots {
		t.Error("slot accounting inconsistent")
	}

	f, err := Flooding(0, "hello").Run(ctx, s, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Broadcast.AllInformed {
		t.Error("flooding left nodes uninformed")
	}
}

// TestBroadcastCompletedMatchesAllInformed checks that the facade
// states a broadcast's completion one way: Result.Completed equals
// Broadcast.AllInformed, and CompletedAtSlot is a slot (≥ 0) iff the
// run completed — for GlobalBroadcast (both fidelities) and Flooding,
// on clear spectrum, two primary-user presets and under churn.
func TestBroadcastCompletedMatchesAllInformed(t *testing.T) {
	base := []ScenarioOption{WithTopology(GNP), WithNodes(8), WithChannels(3, 2, 0), WithSeed(21)}
	scenarios := []struct {
		name string
		opts []ScenarioOption
	}{
		{PresetQuiet, presetOptions(t, PresetQuiet, base...)},
		{PresetBursty, presetOptions(t, PresetBursty, base...)},
		{PresetUrbanBusy, presetOptions(t, PresetUrbanBusy, base...)},
		{"churn", append(base[:len(base):len(base)], WithChurn(0.001, 0.002, 22))},
	}
	// Full fidelity simulates every setup exchange, so it runs one seed,
	// and none under -short.
	prims := []struct {
		name  string
		prim  Primitive
		seeds uint64
	}{
		{"cgcast", GlobalBroadcast(0, "m"), 2},
		{"flood", Flooding(0, "m"), 2},
		{"cgcast-full", GlobalBroadcast(0, "m", WithFullFidelity()), 1},
	}
	if testing.Short() {
		prims = prims[:2]
	}
	completed := map[bool]int{}
	for _, sc := range scenarios {
		s, err := New(sc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range prims {
			for seed := uint64(1); seed <= pc.seeds; seed++ {
				res, err := pc.prim.Run(context.Background(), s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed != res.Broadcast.AllInformed {
					t.Errorf("%s/%s seed %d: Completed = %v, Broadcast.AllInformed = %v",
						sc.name, pc.name, seed, res.Completed, res.Broadcast.AllInformed)
				}
				if (res.CompletedAtSlot >= 0) != res.Completed {
					t.Errorf("%s/%s seed %d: CompletedAtSlot = %d with Completed = %v",
						sc.name, pc.name, seed, res.CompletedAtSlot, res.Completed)
				}
				completed[res.Completed]++
			}
		}
	}
	if completed[true] == 0 || completed[false] == 0 {
		t.Errorf("runs completed %d times and failed %d times; both outcomes must occur", completed[true], completed[false])
	}
}

func TestBroadcastSourceValidation(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(6), WithChannels(3, 2, 0), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := GlobalBroadcast(99, "x").Run(ctx, s, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := Flooding(-1, "x").Run(ctx, s, 1); err == nil {
		t.Error("negative source accepted")
	}
}

func TestCustomScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// A triangle where each edge has its own shared channel plus one
	// common channel.
	cfg := CustomConfig{
		N:        3,
		Edges:    [][2]int{{0, 1}, {1, 2}, {0, 2}},
		Universe: 4,
		Channels: [][]int{
			{0, 1, 3},
			{0, 1, 2},
			{0, 2, 3},
		},
		Seed: 13,
	}
	s, err := NewCustomScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 2 || s.KMax() != 2 {
		t.Errorf("overlap = [%d,%d], want [2,2]", s.K(), s.KMax())
	}
	res, err := Discovery(CSeek).Run(context.Background(), s, 15)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Discovery; !d.AllDiscovered() {
		t.Errorf("discovered %d/%d", d.PairsDiscovered, d.PairsTotal)
	}
}

func TestCustomScenarioValidation(t *testing.T) {
	base := CustomConfig{
		N:        3,
		Edges:    [][2]int{{0, 1}, {1, 2}},
		Universe: 3,
		Channels: [][]int{{0, 1}, {0, 1}, {0, 1}},
	}
	t.Run("disconnected", func(t *testing.T) {
		cfg := base
		cfg.Edges = [][2]int{{0, 1}}
		if _, err := NewCustomScenario(cfg); err == nil {
			t.Error("disconnected topology accepted")
		}
	})
	t.Run("no shared channel", func(t *testing.T) {
		cfg := base
		cfg.Channels = [][]int{{0}, {1}, {2}}
		if _, err := NewCustomScenario(cfg); err == nil {
			t.Error("channel-disjoint neighbors accepted")
		}
	})
	t.Run("uneven channel counts", func(t *testing.T) {
		cfg := base
		cfg.Channels = [][]int{{0, 1}, {0}, {0, 1}}
		if _, err := NewCustomScenario(cfg); err == nil {
			t.Error("uneven channel counts accepted")
		}
	})
	t.Run("too many nodes", func(t *testing.T) {
		cfg := base
		cfg.N = maxNodes + 1
		cfg.Edges = nil
		cfg.Channels = make([][]int, cfg.N)
		for u := range cfg.Channels {
			cfg.Channels[u] = []int{0, 1}
			if u > 0 {
				cfg.Edges = append(cfg.Edges, [2]int{u - 1, u})
			}
		}
		if _, err := NewCustomScenario(cfg); err == nil || !strings.Contains(err.Error(), "at most 8192") {
			t.Errorf("8193-node custom path: err = %v, want the node bound", err)
		}
	})
	t.Run("bad edge", func(t *testing.T) {
		cfg := base
		cfg.Edges = [][2]int{{0, 1}, {1, 5}}
		if _, err := NewCustomScenario(cfg); err == nil {
			t.Error("out-of-range edge accepted")
		}
	})
}

func TestSharedChannelCountAndEdges(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(4), WithChannels(3, 2, 0), WithSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	edges := s.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges() = %v", edges)
	}
	for _, e := range edges {
		if got := s.SharedChannelCount(e[0], e[1]); got != 2 {
			t.Errorf("SharedChannelCount(%d,%d) = %d, want 2", e[0], e[1], got)
		}
	}
}

// TestScenarioAssemblyAllocs is the allocation regression for scenario
// assembly: over a prebuilt 2048-node graph, the SharedCore assignment
// and NewScenarioFromParts allocate O(n·c + m) bytes. Label tables as
// wide as SharedCore's whole universe (k + n(c−k) channels) and one
// BFS per vertex for the diameter made it 172 MB. The diameter must
// still be the largest eccentricity.
func TestScenarioAssemblyAllocs(t *testing.T) {
	const n, c, k = 2048, 8, 2
	const ceiling = 1 << 20
	g, err := graph.RandomRegularish(n, 8, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := chanassign.SharedCore(n, c, k, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScenarioFromParts(g, a)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("n=%d: assembly allocated %d bytes in %d allocations", n, allocated, after.Mallocs-before.Mallocs)
	if allocated >= ceiling {
		t.Errorf("assembly allocated %d bytes, ceiling %d", allocated, ceiling)
	}
	want := 0
	for u := 0; u < n; u++ {
		want = max(want, g.Eccentricity(u))
	}
	if s.Diameter() != want {
		t.Errorf("Diameter() = %d, largest eccentricity %d", s.Diameter(), want)
	}
}
