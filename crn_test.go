package crn

import (
	"runtime"
	"testing"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

func TestNewScenarioValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  ScenarioConfig
	}{
		{name: "too few nodes", cfg: ScenarioConfig{N: 1, C: 3, K: 1}},
		{name: "no channels", cfg: ScenarioConfig{N: 4, C: 0, K: 0}},
		{name: "k over c", cfg: ScenarioConfig{N: 4, C: 2, K: 3}},
		{name: "kmax under k", cfg: ScenarioConfig{N: 4, C: 4, K: 3, KMax: 2}},
		{name: "bad topology", cfg: ScenarioConfig{Topology: "donut", N: 4, C: 2, K: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewScenario(tt.cfg); err == nil {
				t.Errorf("NewScenario(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestNewScenarioTopologies(t *testing.T) {
	for _, topo := range []Topology{GNP, Star, Path, Grid, Chain, Tree, UnitDisk} {
		t.Run(string(topo), func(t *testing.T) {
			s, err := NewScenario(ScenarioConfig{Topology: topo, N: 12, C: 4, K: 2, Seed: 3})
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

func TestScenarioHeterogeneous(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Topology: Path, N: 8, C: 8, K: 2, KMax: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.KMax() <= s.K() {
		t.Errorf("kmax = %d not above k = %d in heterogeneous scenario", s.KMax(), s.K())
	}
}

func TestDiscoverCSeek(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := NewScenario(ScenarioConfig{Topology: GNP, N: 14, C: 5, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Discover(CSeek, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDiscovered() {
		t.Errorf("discovered %d/%d pairs", res.PairsDiscovered, res.PairsTotal)
	}
	if res.CompletedAtSlot < 0 || res.CompletedAtSlot > res.ScheduleSlots {
		t.Errorf("CompletedAtSlot = %d outside [0,%d]", res.CompletedAtSlot, res.ScheduleSlots)
	}
	if res.Algorithm != "cseek" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

func TestDiscoverDefaultsToCSeek(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Topology: Path, N: 6, C: 3, K: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Discover("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "cseek" {
		t.Errorf("Algorithm = %q, want cseek", res.Algorithm)
	}
}

func TestDiscoverUnknownAlgorithm(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Topology: Path, N: 6, C: 3, K: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Discover("magic", 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDiscoverBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := NewScenario(ScenarioConfig{Topology: Star, N: 8, C: 4, K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Naive, Uniform} {
		res, err := s.Discover(algo, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDiscovered() {
			t.Errorf("%s: discovered %d/%d", algo, res.PairsDiscovered, res.PairsTotal)
		}
	}
}

func TestDiscoverK(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := NewScenario(ScenarioConfig{Topology: GNP, N: 14, C: 10, K: 2, KMax: 6, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.DiscoverK(s.KMax(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsTotal == 0 {
		t.Fatal("no good pairs in heterogeneous scenario")
	}
	if !res.AllDiscovered() {
		t.Errorf("found %d/%d good pairs", res.PairsDiscovered, res.PairsTotal)
	}
	if _, err := s.DiscoverK(1, 13); err == nil {
		t.Error("k̂ below k accepted")
	}
	if _, err := s.DiscoverK(s.C()+1, 13); err == nil {
		t.Error("k̂ above kmax accepted")
	}
}

func TestBroadcastAndFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := NewScenario(ScenarioConfig{Topology: Chain, N: 16, C: 4, K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Broadcast(0, "hello", 17)
	if err != nil {
		t.Fatal(err)
	}
	if !b.AllInformed {
		t.Error("CGCAST left nodes uninformed")
	}
	if !b.ColoringValid {
		t.Error("coloring invalid")
	}
	if b.TotalSlots != b.SetupSlots+b.DissemScheduleSlots {
		t.Error("slot accounting inconsistent")
	}

	f, err := s.Flood(0, "hello", 19)
	if err != nil {
		t.Fatal(err)
	}
	if !f.AllInformed {
		t.Error("flooding left nodes uninformed")
	}
}

func TestBroadcastSourceValidation(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Topology: Path, N: 6, C: 3, K: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Broadcast(99, "x", 1); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := s.Flood(-1, "x", 1); err == nil {
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
	res, err := s.Discover(CSeek, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDiscovered() {
		t.Errorf("discovered %d/%d", res.PairsDiscovered, res.PairsTotal)
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
	t.Run("bad edge", func(t *testing.T) {
		cfg := base
		cfg.Edges = [][2]int{{0, 1}, {1, 5}}
		if _, err := NewCustomScenario(cfg); err == nil {
			t.Error("out-of-range edge accepted")
		}
	})
}

func TestSharedChannelCountAndEdges(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Topology: Path, N: 4, C: 3, K: 2, Seed: 14})
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
