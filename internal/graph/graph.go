// Package graph models the network topology of a cognitive radio
// network as an undirected simple graph, as in Section 3 of the paper:
// vertices are nodes, and an edge connects two nodes iff they are
// neighbors (within range and sharing channels).
//
// The package provides the structural queries the algorithms and their
// analyses need — degree Δ, diameter D, BFS layers, connectivity — plus
// the line-graph construction that experiment E6 colors (CGCAST
// simulates the line graph itself and does not call it), and
// generators for the worst-case topologies in the lower-bound proofs
// (stars, complete trees) and for random networks.
package graph

import (
	"fmt"
	"math/bits"

	"crn/internal/bitset"
)

// Graph is an undirected simple graph on vertices 0..N-1. Construct
// with FromEdges or a generator; no method mutates it.
type Graph struct {
	n     int
	adj   [][]int32 // ascending; windows of one backing array
	edges []Edge    // each with U < V, sorted by (U, V)
	// nbr is the dense adjacency matrix, n²/8 bytes: the radio
	// engine's adjacency probes are one bit probe each, with no
	// hashing.
	nbr *bitset.Matrix
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// FromEdges returns the graph on n vertices with the given undirected
// edges, in any order. It returns an error for a self-loop, an
// out-of-range endpoint, or a duplicate edge in either orientation.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := newBuilder(n)
	for _, e := range edges {
		if err := b.add(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.graph(), nil
}

// builder accumulates an edge set in the n×n matrix and the degree
// counts, then lays the graph out once. Every constructor goes
// through it.
type builder struct {
	n, m int
	deg  []int32
	nbr  *bitset.Matrix
}

func newBuilder(n int) *builder {
	n = max(n, 0)
	return &builder{n: n, deg: make([]int32, n), nbr: bitset.NewMatrix(n, n)}
}

// add inserts the undirected edge {u, v}. It returns an error for
// self-loops, out-of-range endpoints, or duplicate edges; the
// duplicate check is one matrix probe, so generating a dense graph is
// O(m), not O(m·Δ).
func (b *builder) add(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if b.nbr.Get(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.nbr.Set(u, v)
	b.nbr.Set(v, u)
	b.deg[u]++
	b.deg[v]++
	b.m++
	return nil
}

// must is add for generator code where the edge is known valid by
// construction; it panics on error.
func (b *builder) must(u, v int) {
	if err := b.add(u, v); err != nil {
		panic(err)
	}
}

// graph lays the edge set out: every adjacency list is a
// capacity-limited window of one array of length 2m, filled by walking
// the set bits of the node's matrix row, so it comes out ascending.
// The bits above u are u's edges (u, v), so the same pass fills the
// edge list in (U, V) order. The graph takes the matrix without a
// copy; the builder must not be used afterwards.
func (b *builder) graph() *Graph {
	g := &Graph{n: b.n, adj: make([][]int32, b.n), edges: make([]Edge, 0, b.m), nbr: b.nbr}
	flat := make([]int32, 2*b.m)
	off := 0
	for u := range g.adj {
		end := off + int(b.deg[u])
		list := flat[off:off:end]
		for wi, w := range b.nbr.Row(u) {
			for ; w != 0; w &= w - 1 {
				v := int32(wi*64 + bits.TrailingZeros64(w))
				list = append(list, v)
				if int(v) > u {
					g.edges = append(g.edges, Edge{U: int32(u), V: v})
				}
			}
		}
		g.adj[u] = list
		off = end
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// HasEdge reports whether {u, v} is an edge: one matrix probe.
// Out-of-range vertices read as false.
func (g *Graph) HasEdge(u, v int) bool { return g.nbr.Get(u, v) }

// NeighborMatrix returns the dense adjacency matrix. The caller must
// not modify it.
func (g *Graph) NeighborMatrix() *bitset.Matrix { return g.nbr }

// Neighbors returns the adjacency list of u, ascending. The caller
// must not modify the returned slice.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns Δ, the maximum degree (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
	}
	return d
}

// Edges returns all edges with U < V, sorted by (U, V). The caller
// must not modify the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// BFS returns the hop distance from src to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. Empty and
// single-vertex graphs count as connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the diameter D (longest shortest path). It returns
// -1 for disconnected graphs and 0 for graphs with fewer than two
// vertices.
//
// After one connectivity BFS it runs a multi-source BFS (Then et al.,
// "The More the Merrier: Efficient Multi-Source Graph Traversal",
// PVLDB 2014) from the sources in batches of 64. Bit i of a vertex's
// seen, frontier and next words stands for source i of the batch, so
// one round advances all 64 searches in a single pass over the
// adjacency lists; D is the last round in which any search reached a
// new vertex. Cost is O(⌈n/64⌉·(D+1)·m) word operations, and besides
// the connectivity BFS the call allocates three n-word slices.
func (g *Graph) Diameter() int {
	if g.n <= 1 {
		return 0
	}
	if !g.Connected() {
		return -1
	}
	seen := make([]uint64, g.n)
	frontier := make([]uint64, g.n)
	next := make([]uint64, g.n)
	d := 0
	for lo := 0; lo < g.n; lo += 64 {
		clear(seen)
		clear(frontier)
		for s := lo; s < min(lo+64, g.n); s++ {
			seen[s] = 1 << (s - lo)
			frontier[s] = seen[s]
		}
		for round := 1; ; round++ {
			advanced := false
			for v, nbrs := range g.adj {
				var reached uint64
				for _, w := range nbrs {
					reached |= frontier[w]
				}
				reached &^= seen[v]
				next[v] = reached
				if reached != 0 {
					seen[v] |= reached
					advanced = true
				}
			}
			if !advanced {
				break
			}
			d = max(d, round)
			frontier, next = next, frontier
		}
	}
	return d
}

// Eccentricity returns the greatest BFS distance from src, or -1 if
// some vertex is unreachable.
func (g *Graph) Eccentricity(src int) int {
	e := 0
	for _, d := range g.BFS(src) {
		if d == -1 {
			return -1
		}
		if d > e {
			e = d
		}
	}
	return e
}

// LineGraph returns the line graph G_L of g together with the mapping
// from G_L vertices back to g's edges: vertex i of the line graph is
// edge Edges()[i] of g, and two line-graph vertices are adjacent iff
// the corresponding edges share an endpoint (Section 5.2).
func (g *Graph) LineGraph() (*Graph, []Edge) {
	edgeIdx := make(map[Edge]int, len(g.edges))
	for i, e := range g.edges {
		edgeIdx[e] = i
	}
	lg := newBuilder(len(g.edges))
	// Two edges are adjacent in G_L iff they share an endpoint: for
	// every vertex u, connect all pairs of edges incident to u. Two
	// distinct edges share at most one endpoint, so each pair is added
	// once.
	for u := 0; u < g.n; u++ {
		inc := g.adj[u]
		for i := 0; i < len(inc); i++ {
			ei := edgeIdx[mkEdge(int32(u), inc[i])]
			for j := i + 1; j < len(inc); j++ {
				lg.must(ei, edgeIdx[mkEdge(int32(u), inc[j])])
			}
		}
	}
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	return lg.graph(), edges
}

func mkEdge(u, v int32) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}
