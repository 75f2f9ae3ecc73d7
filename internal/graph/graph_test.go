package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"crn/internal/rng"
)

// mustFromEdges is FromEdges for edge lists known valid.
func mustFromEdges(t testing.TB, n int, edges ...[2]int) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFromEdgesErrors: every refusal names its cause, a duplicate is
// refused in either orientation, and a valid list builds.
func TestFromEdgesErrors(t *testing.T) {
	tests := []struct {
		name  string
		edges [][2]int
		want  string
	}{
		{name: "self loop", edges: [][2]int{{1, 1}}, want: "graph: self-loop at 1"},
		{name: "negative", edges: [][2]int{{-1, 0}}, want: "graph: edge (-1,0) out of range [0,3)"},
		{name: "out of range", edges: [][2]int{{0, 3}}, want: "graph: edge (0,3) out of range [0,3)"},
		{name: "duplicate", edges: [][2]int{{0, 1}, {1, 2}, {0, 1}}, want: "graph: duplicate edge (0,1)"},
		{name: "reversed duplicate", edges: [][2]int{{1, 2}, {2, 1}}, want: "graph: duplicate edge (2,1)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := FromEdges(3, tt.edges)
			if err == nil || err.Error() != tt.want {
				t.Fatalf("FromEdges(3, %v) = %v, %v; want error %q", tt.edges, g, err, tt.want)
			}
		})
	}
	g := mustFromEdges(t, 5, [2]int{3, 1}, [2]int{1, 4})
	if g.M() != 2 || !g.HasEdge(1, 3) || !g.HasEdge(4, 1) {
		t.Errorf("FromEdges(5, {3,1},{1,4}): M=%d, edges %v", g.M(), g.Edges())
	}
}

func TestBasicQueries(t *testing.T) {
	g := mustFromEdges(t, 4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})

	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N,M = %d,%d want 4,4", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) = true")
	}
	if g.Degree(0) != 2 || g.MaxDegree() != 2 {
		t.Errorf("Degree(0)=%d MaxDegree=%d, want 2,2", g.Degree(0), g.MaxDegree())
	}
	for _, e := range g.Edges() {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized", e)
		}
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("BFS(0)[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Path(5).Diameter() = %d, want 4", d)
	}
	if e := g.Eccentricity(2); e != 2 {
		t.Errorf("Eccentricity(2) = %d, want 2", e)
	}

	// Disconnected graph.
	h := mustFromEdges(t, 4, [2]int{0, 1}, [2]int{2, 3})
	if h.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if d := h.Diameter(); d != -1 {
		t.Errorf("disconnected Diameter = %d, want -1", d)
	}
	if e := h.Eccentricity(0); e != -1 {
		t.Errorf("disconnected Eccentricity = %d, want -1", e)
	}
}

func TestTrivialGraphs(t *testing.T) {
	if !mustFromEdges(t, 0).Connected() || !mustFromEdges(t, 1).Connected() {
		t.Error("empty/singleton graphs should be connected")
	}
	if d := mustFromEdges(t, 1).Diameter(); d != 0 {
		t.Errorf("singleton Diameter = %d, want 0", d)
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.MaxDegree() != 5 {
		t.Errorf("Star(6).MaxDegree() = %d, want 5", g.MaxDegree())
	}
	if g.Degree(3) != 1 {
		t.Errorf("leaf degree = %d, want 1", g.Degree(3))
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("Star(6).Diameter() = %d, want 2", d)
	}
}

func TestCycle(t *testing.T) {
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) should error")
	}
	g, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 6 || g.MaxDegree() != 2 || g.Diameter() != 3 {
		t.Errorf("Cycle(6): M=%d Δ=%d D=%d, want 6,2,3", g.M(), g.MaxDegree(), g.Diameter())
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 10 || g.MaxDegree() != 4 || g.Diameter() != 1 {
		t.Errorf("K5: M=%d Δ=%d D=%d, want 10,4,1", g.M(), g.MaxDegree(), g.Diameter())
	}
}

func TestCompleteTree(t *testing.T) {
	tests := []struct {
		branching, height int
		wantN, wantDiam   int
	}{
		{branching: 2, height: 0, wantN: 1, wantDiam: 0},
		{branching: 2, height: 1, wantN: 3, wantDiam: 2},
		{branching: 2, height: 3, wantN: 15, wantDiam: 6},
		{branching: 3, height: 2, wantN: 13, wantDiam: 4},
		{branching: 1, height: 4, wantN: 5, wantDiam: 4},
	}
	for _, tt := range tests {
		g, err := CompleteTree(tt.branching, tt.height)
		if err != nil {
			t.Fatalf("CompleteTree(%d,%d): %v", tt.branching, tt.height, err)
		}
		if g.N() != tt.wantN {
			t.Errorf("CompleteTree(%d,%d).N() = %d, want %d", tt.branching, tt.height, g.N(), tt.wantN)
		}
		if d := g.Diameter(); d != tt.wantDiam {
			t.Errorf("CompleteTree(%d,%d).Diameter() = %d, want %d", tt.branching, tt.height, d, tt.wantDiam)
		}
		if g.M() != g.N()-1 {
			t.Errorf("tree has %d edges for %d vertices", g.M(), g.N())
		}
		if !g.Connected() {
			t.Error("tree not connected")
		}
		// Root degree equals branching (height >= 1).
		if tt.height >= 1 && g.Degree(0) != tt.branching {
			t.Errorf("root degree = %d, want %d", g.Degree(0), tt.branching)
		}
	}
	if _, err := CompleteTree(0, 1); err == nil {
		t.Error("CompleteTree(0,1) should error")
	}
	if _, err := CompleteTree(2, -1); err == nil {
		t.Error("CompleteTree(2,-1) should error")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("Grid(3,4).N() = %d, want 12", g.N())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.M() != 17 {
		t.Errorf("Grid(3,4).M() = %d, want 17", g.M())
	}
	if d := g.Diameter(); d != 5 {
		t.Errorf("Grid(3,4).Diameter() = %d, want 5", d)
	}
	if _, err := Grid(0, 3); err == nil {
		t.Error("Grid(0,3) should error")
	}
}

func TestClusterChain(t *testing.T) {
	g, err := ClusterChain(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d, want 20", g.N())
	}
	if !g.Connected() {
		t.Fatal("cluster chain not connected")
	}
	// Each clique has C(5,2)=10 edges, plus 3 bridges.
	if g.M() != 43 {
		t.Errorf("M = %d, want 43", g.M())
	}
	// Bridge endpoints have degree 5; interior clique members 4.
	if g.MaxDegree() != 6 {
		// vertex 4 connects to its 4 clique peers + bridge to 5; vertex 5
		// connects to 4 peers + bridge from 4 + bridge to ... only one
		// bridge each side; max is 5 for single-bridge endpoints, 6 when a
		// vertex carries bridges on both sides (cluster size 1 case).
		t.Logf("MaxDegree = %d", g.MaxDegree())
	}
	if _, err := ClusterChain(0, 2); err == nil {
		t.Error("ClusterChain(0,2) should error")
	}
}

func TestClusterChainDegenerate(t *testing.T) {
	g, err := ClusterChain(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerates to a path.
	if g.Diameter() != 4 || g.M() != 4 {
		t.Errorf("ClusterChain(5,1): D=%d M=%d, want 4,4", g.Diameter(), g.M())
	}
}

func TestGNP(t *testing.T) {
	r := rng.New(1)
	g, err := GNP(30, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("GNP sample not connected")
	}
	if g.N() != 30 {
		t.Errorf("N = %d, want 30", g.N())
	}
	if _, err := GNP(0, 0.5, r); err == nil {
		t.Error("GNP(0) should error")
	}
	// Hopeless density must error out rather than loop forever.
	if _, err := GNP(40, 0.0, r); err == nil {
		t.Error("GNP with p=0 should fail to connect")
	}
}

func TestUnitDisk(t *testing.T) {
	r := rng.New(7)
	g, err := UnitDisk(40, 0.35, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("unit disk sample not connected")
	}
	if _, err := UnitDisk(50, 0.01, r); err == nil {
		t.Error("tiny-radius UnitDisk should fail to connect")
	}
}

func TestRandomRegularish(t *testing.T) {
	r := rng.New(3)
	const n, d = 40, 6
	g, err := RandomRegularish(n, d, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) < 2 || g.Degree(u) > d+1 {
			t.Errorf("vertex %d degree %d outside [2,%d]", u, g.Degree(u), d+1)
		}
	}
	if _, err := RandomRegularish(2, 2, r); err == nil {
		t.Error("RandomRegularish(2,2) should error")
	}
	if _, err := RandomRegularish(10, 1, r); err == nil {
		t.Error("RandomRegularish(10,1) should error")
	}
}

func TestLineGraphTriangle(t *testing.T) {
	// Triangle: line graph is also a triangle.
	g := Complete(3)
	lg, edges := g.LineGraph()
	if lg.N() != 3 || lg.M() != 3 {
		t.Errorf("line graph of K3: N=%d M=%d, want 3,3", lg.N(), lg.M())
	}
	if len(edges) != 3 {
		t.Errorf("edge mapping has %d entries, want 3", len(edges))
	}
}

func TestLineGraphPath(t *testing.T) {
	// Path on 4 vertices (3 edges): line graph is a path on 3 vertices.
	g := Path(4)
	lg, _ := g.LineGraph()
	if lg.N() != 3 || lg.M() != 2 {
		t.Errorf("line graph of P4: N=%d M=%d, want 3,2", lg.N(), lg.M())
	}
}

func TestLineGraphStar(t *testing.T) {
	// Star K_{1,4}: line graph is K4.
	g := Star(5)
	lg, _ := g.LineGraph()
	if lg.N() != 4 || lg.M() != 6 {
		t.Errorf("line graph of K1,4: N=%d M=%d, want 4,6", lg.N(), lg.M())
	}
}

// TestLineGraphProperties checks structural invariants on random
// graphs: vertex count = M(g), adjacency iff shared endpoint, and the
// max degree bound 2Δ-2 from Section 5.3.
func TestLineGraphProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := GNP(12, 0.4, r)
		if err != nil {
			return true // skip unlucky disconnected batches
		}
		lg, edges := g.LineGraph()
		if lg.N() != g.M() {
			return false
		}
		// Max degree of the line graph is at most 2Δ-2.
		if dMax := g.MaxDegree(); lg.MaxDegree() > 2*dMax-2 {
			return false
		}
		// Check adjacency definition on all pairs.
		for i := 0; i < lg.N(); i++ {
			for j := i + 1; j < lg.N(); j++ {
				share := edges[i].U == edges[j].U || edges[i].U == edges[j].V ||
					edges[i].V == edges[j].U || edges[i].V == edges[j].V
				if lg.HasEdge(i, j) != share {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// floydWarshallDiameter is the all-pairs reference: the greatest
// finite distance, -1 when some pair is unreachable, 0 below two
// vertices.
func floydWarshallDiameter(g *Graph) int {
	n := g.N()
	const inf = 1 << 29
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, e := range g.Edges() {
		d[e.U][e.V] = 1
		d[e.V][e.U] = 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	want := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d[i][j] == inf {
				return -1
			}
			if d[i][j] > want {
				want = d[i][j]
			}
		}
	}
	return want
}

// TestDiameterMatchesFloydWarshall cross-checks Diameter against an
// independent all-pairs computation: random dense graphs, sparse
// graphs whose sizes fall on either side of a 64-source batch, a path
// longer than two batches, a disconnected graph and the 0- and
// 1-vertex graphs.
func TestDiameterMatchesFloydWarshall(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := GNP(10, 0.35, r)
		if err != nil {
			return true
		}
		return g.Diameter() == floydWarshallDiameter(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}

	cases := map[string]*Graph{"path130": Path(130), "empty": mustFromEdges(t, 0), "single": mustFromEdges(t, 1)}
	for _, n := range []int{63, 64, 65, 130} {
		g, err := RandomRegularish(n, 3, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("sparse%d", n)] = g
	}
	var split [][2]int // two paths, 0..39 and 40..69
	for u := 0; u+1 < 70; u++ {
		if u != 39 {
			split = append(split, [2]int{u, u + 1})
		}
	}
	cases["disconnected"] = mustFromEdges(t, 70, split...)
	want := map[string]int{"path130": 129, "empty": 0, "single": 0, "disconnected": -1}
	for name, g := range cases {
		got, fw := g.Diameter(), floydWarshallDiameter(g)
		if got != fw {
			t.Errorf("%s: Diameter() = %d, Floyd-Warshall %d", name, got, fw)
		}
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s: Diameter() = %d, want %d", name, got, w)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustFromEdges(t, 5, [2]int{2, 4}, [2]int{2, 0}, [2]int{3, 2})
	nbrs := g.Neighbors(2)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("Neighbors(2) not sorted: %v", nbrs)
		}
	}
	edges := g.Edges()
	for i := 1; i < len(edges); i++ {
		if a, b := edges[i-1], edges[i]; a.U > b.U || a.U == b.U && a.V >= b.V {
			t.Fatalf("Edges() not sorted by (U, V): %v", edges)
		}
	}
}

func BenchmarkDiameter(b *testing.B) {
	r := rng.New(1)
	g, err := GNP(100, 0.1, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Diameter()
	}
}

func BenchmarkLineGraph(b *testing.B) {
	r := rng.New(1)
	g, err := GNP(60, 0.15, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.LineGraph()
	}
}

// BenchmarkGNPDense measures dense random-graph generation: one
// Bernoulli draw and, per edge, one matrix probe.
func BenchmarkGNPDense(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := GNP(512, 0.5, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if g.M() == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkRandomRegularish measures the HasEdge-heavy chord generator.
func BenchmarkRandomRegularish(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := RandomRegularish(512, 16, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if g.M() == 0 {
			b.Fatal("no edges")
		}
	}
}

// TestGeneratorAllocs: a graph is built in a constant number of
// allocations, whatever its size — the matrix, the degree counts and
// one exactly-sized array each for the adjacency lists and the edge
// list — and the dynamic view's clone is one more constant.
func TestGeneratorAllocs(t *testing.T) {
	const ceiling = 16
	base, err := GNP(64, 0.3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() error
	}{
		{"Path(4096)", func() error { Path(4096); return nil }},
		{"RandomRegularish(2048, 8)", func() error { _, err := RandomRegularish(2048, 8, rng.New(1)); return err }},
		{"Complete(64)", func() error { Complete(64); return nil }},
		{"Grid(8, 8)", func() error { _, err := Grid(8, 8); return err }},
		{"NewDynamic(GNP(64, 0.3))", func() error { NewDynamic(base); return nil }},
	}
	for _, c := range cases {
		var err error
		allocs := testing.AllocsPerRun(5, func() {
			if e := c.build(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations, want at most %d", c.name, allocs, ceiling)
		} else {
			t.Logf("%s: %.0f allocations", c.name, allocs)
		}
	}
}
