package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"crn/internal/rng"
)

// hashGraph writes every structure a caller can read from g into h:
// the sizes, Edges() in order, each adjacency list in order, each
// matrix row, Δ and D.
func hashGraph(h hash.Hash, g *Graph) {
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(int64(g.N()))
	put(int64(g.M()))
	for _, e := range g.Edges() {
		put(int64(e.U))
		put(int64(e.V))
	}
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		put(int64(len(nbrs)))
		for _, v := range nbrs {
			put(int64(v))
		}
		_ = binary.Write(h, binary.LittleEndian, g.NeighborMatrix().Row(u))
	}
	put(int64(g.MaxDegree()))
	put(int64(g.Diameter()))
}

// TestGeneratorsPinned pins every generator's output byte for byte:
// the random generators over sizes small enough to need connectivity
// retries and large enough to span several matrix words, the
// deterministic shapes, line graphs with their edge maps, and a
// dynamic view after a few mutations. A change to how graphs are
// built must leave this digest as it is.
func TestGeneratorsPinned(t *testing.T) {
	h := sha256.New()
	add := func(label string, g *Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s\n", label)
		hashGraph(h, g)
	}
	for _, n := range []int{2, 5, 33, 64, 130} {
		for seed := uint64(1); seed <= 6; seed++ {
			g, err := GNP(n, 0.3, rng.New(seed))
			add(fmt.Sprintf("gnp/%d/%d", n, seed), g, err)
			g, err = UnitDisk(n, 0.35, rng.New(seed))
			add(fmt.Sprintf("unitdisk/%d/%d", n, seed), g, err)
			if n >= 3 {
				g, err = RandomRegularish(n, min(8, n-1), rng.New(seed))
				add(fmt.Sprintf("regular/%d/%d", n, seed), g, err)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 5, 33, 64, 130} {
		add(fmt.Sprintf("star/%d", n), Star(n), nil)
		add(fmt.Sprintf("path/%d", n), Path(n), nil)
		add(fmt.Sprintf("complete/%d", n), Complete(n), nil)
		if n >= 3 {
			g, err := Cycle(n)
			add(fmt.Sprintf("cycle/%d", n), g, err)
		}
	}
	g, err := CompleteTree(3, 4)
	add("tree/3/4", g, err)
	g, err = CompleteTree(1, 20)
	add("tree/1/20", g, err)
	g, err = Grid(8, 8)
	add("grid/8x8", g, err)
	g, err = Grid(3, 7)
	add("grid/3x7", g, err)
	g, err = ClusterChain(4, 5)
	add("clusterchain/4/5", g, err)

	gnp, err := GNP(12, 0.4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		base *Graph
	}{{"gnp12", gnp}, {"star6", Star(6)}, {"grid3x4", grid}} {
		lg, edges := c.base.LineGraph()
		add("line/"+c.name, lg, nil)
		for _, e := range edges {
			_ = binary.Write(h, binary.LittleEndian, [2]int32{e.U, e.V})
		}
	}

	base, err := GNP(20, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(base)
	for i, e := range base.Edges() {
		if i%3 == 0 {
			d.RemoveEdge(int(e.U), int(e.V))
		}
	}
	r := rng.New(6)
	for i := 0; i < 20; i++ {
		d.AddEdge(r.Intn(20), r.Intn(20))
	}
	add("dynamic/gnp20", d.Graph(), nil)

	const want = "2cab81b98da19423d5270b2f04cbd2f4442221be384d05d569cfec8cce3de093"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("generator digest = %s, want %s", got, want)
	}
}
