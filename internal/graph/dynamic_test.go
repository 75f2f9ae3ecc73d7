package graph

import (
	"testing"

	"crn/internal/rng"
)

// rebuild constructs a fresh graph on n vertices holding exactly the
// given edge set — the oracle every incremental invariant is checked
// against.
func rebuild(t *testing.T, n int, edges map[Edge]bool) *Graph {
	list := make([][2]int, 0, len(edges))
	for e := range edges {
		list = append(list, [2]int{int(e.U), int(e.V)})
	}
	return mustFromEdges(t, n, list...)
}

// assertDynamicMatches checks every structure the radio engine reads —
// sorted adjacency, HasEdge and the dense matrix — against the
// rebuilt-from-scratch oracle, and that the view keeps no edge list.
func assertDynamicMatches(t *testing.T, d *Dynamic, oracle *Graph) {
	t.Helper()
	g := d.Graph()
	if g.N() != oracle.N() {
		t.Fatalf("dynamic n=%d, oracle n=%d", g.N(), oracle.N())
	}
	if g.M() != 0 || g.Edges() != nil {
		t.Fatalf("dynamic view keeps an edge list: M()=%d, %d edges", g.M(), len(g.Edges()))
	}
	for u := 0; u < g.N(); u++ {
		got, want := g.Neighbors(u), oracle.Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("node %d: adjacency %v, oracle %v", u, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d: adjacency %v not sorted-equal to oracle %v", u, got, want)
			}
		}
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if g.HasEdge(u, v) != oracle.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) = %v, oracle %v", u, v, g.HasEdge(u, v), oracle.HasEdge(u, v))
			}
		}
	}
	if !g.NeighborMatrix().EqualMatrix(oracle.NeighborMatrix()) {
		t.Fatal("dynamic neighbor matrix diverged from oracle")
	}
}

// TestDynamicRandomizedOracle is the acceptance oracle: a long random
// interleaving of incremental adds and removes, mirrored into a shadow
// edge set, must report exactly the changes the shadow sees and leave
// every invariant identical to a graph rebuilt from the shadow at
// checkpoints.
func TestDynamicRandomizedOracle(t *testing.T) {
	const n, ops, checkEvery = 24, 4000, 250
	r := rng.New(42)
	base, err := GNP(n, 0.25, r)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make(map[Edge]bool, base.M())
	for _, e := range base.Edges() {
		shadow[e] = true
	}
	d := NewDynamic(base)
	adds, removes := 0, 0
	for op := 1; op <= ops; op++ {
		u, v := r.Intn(n), r.Intn(n)
		e := mkEdge(int32(u), int32(v))
		if r.Bool() {
			added := d.AddEdge(u, v)
			if want := u != v && !shadow[e]; added != want {
				t.Fatalf("AddEdge(%d,%d) = %v, want %v", u, v, added, want)
			}
			if added {
				shadow[e] = true
				adds++
			}
		} else {
			removed := d.RemoveEdge(u, v)
			if want := shadow[e]; removed != want {
				t.Fatalf("RemoveEdge(%d,%d) = %v, want %v", u, v, removed, want)
			}
			if removed {
				delete(shadow, e)
				removes++
			}
		}
		if op%checkEvery == 0 {
			assertDynamicMatches(t, d, rebuild(t, n, shadow))
		}
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("workload degenerate: %d adds, %d removes", adds, removes)
	}
	for _, uv := range [][2]int{{-1, 0}, {0, -1}, {0, n}, {n, 0}} {
		if d.AddEdge(uv[0], uv[1]) || d.RemoveEdge(uv[0], uv[1]) {
			t.Fatalf("out-of-range pair %v changed the view", uv)
		}
	}
	assertDynamicMatches(t, d, rebuild(t, n, shadow))
}

// TestDynamicLeavesBaseUntouched: the clone is deep — mutating the
// dynamic view must not disturb the base graph shared across sweep
// workers.
func TestDynamicLeavesBaseUntouched(t *testing.T) {
	base, err := GNP(12, 0.3, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	wantM := base.M()
	wantAdj := make([][]int32, base.N())
	for u := range wantAdj {
		wantAdj[u] = append([]int32(nil), base.Neighbors(u)...)
	}
	d := NewDynamic(base)
	for u := 0; u < base.N(); u++ {
		for v := u + 1; v < base.N(); v++ {
			if d.Graph().HasEdge(u, v) {
				d.RemoveEdge(u, v)
			} else {
				d.AddEdge(u, v)
			}
		}
	}
	if base.M() != wantM {
		t.Fatalf("base edge count changed: %d -> %d", wantM, base.M())
	}
	for u := range wantAdj {
		got := base.Neighbors(u)
		if len(got) != len(wantAdj[u]) {
			t.Fatalf("base adjacency of %d changed: %v -> %v", u, wantAdj[u], got)
		}
		for i := range got {
			if got[i] != wantAdj[u][i] {
				t.Fatalf("base adjacency of %d changed: %v -> %v", u, wantAdj[u], got)
			}
		}
		for _, v := range wantAdj[u] {
			if !base.HasEdge(u, int(v)) {
				t.Fatalf("base lost edge (%d,%d)", u, v)
			}
		}
	}
}

// TestUnitDiskGeometryConsistent: the returned point set explains the
// returned edge set exactly.
func TestUnitDiskGeometryConsistent(t *testing.T) {
	g, geom, err := UnitDiskGeometry(30, 0.35, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(geom.X) != g.N() || len(geom.Y) != g.N() || geom.Radius != 0.35 {
		t.Fatalf("geometry shape mismatch: %d/%d points, radius %v", len(geom.X), len(geom.Y), geom.Radius)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != geom.InRange(u, v) {
				t.Fatalf("edge (%d,%d)=%v disagrees with geometry range %v", u, v, g.HasEdge(u, v), geom.InRange(u, v))
			}
		}
	}
	c := geom.Clone()
	c.X[0] += 1
	if geom.X[0] == c.X[0] {
		t.Fatal("Clone shares position storage")
	}
}
