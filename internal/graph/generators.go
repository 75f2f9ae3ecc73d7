package graph

import (
	"fmt"

	"crn/internal/rng"
)

// Star returns a star on n vertices with vertex 0 at the center.
// It is the topology behind the Ω(Δ) term in Theorem 13: the center can
// learn at most one identity per slot.
func Star(n int) *Graph {
	b := newBuilder(n)
	for v := 1; v < n; v++ {
		b.must(0, v)
	}
	return b.graph()
}

// Path returns a path 0-1-2-…-(n-1), the maximum-diameter tree.
func Path(n int) *Graph {
	b := newBuilder(n)
	for v := 1; v < n; v++ {
		b.must(v-1, v)
	}
	return b.graph()
}

// Cycle returns a cycle on n ≥ 3 vertices.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs n >= 3, got %d", n)
	}
	b := newBuilder(n)
	for v := 0; v < n; v++ {
		b.must(v, (v+1)%n)
	}
	return b.graph(), nil
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := newBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.must(u, v)
		}
	}
	return b.graph()
}

// CompleteTree returns a complete rooted tree of the given height in
// which every internal vertex has `branching` children. Vertex 0 is the
// root. This is the topology in the proof of Theorem 14 (with
// branching = min{c,Δ}−1).
func CompleteTree(branching, height int) (*Graph, error) {
	if branching < 1 {
		return nil, fmt.Errorf("graph: tree branching must be >= 1, got %d", branching)
	}
	if height < 0 {
		return nil, fmt.Errorf("graph: tree height must be >= 0, got %d", height)
	}
	// Count vertices: sum of branching^level for level = 0..height.
	n := 1
	levelSize := 1
	for l := 1; l <= height; l++ {
		levelSize *= branching
		n += levelSize
		if n > 1<<22 {
			return nil, fmt.Errorf("graph: complete tree too large (%d vertices)", n)
		}
	}
	// Ids are assigned level by level, each parent's children
	// consecutive, so vertex v's parent is (v−1)/branching.
	b := newBuilder(n)
	for v := 1; v < n; v++ {
		b.must((v-1)/branching, v)
	}
	return b.graph(), nil
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid needs positive dims, got %dx%d", rows, cols)
	}
	b := newBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.must(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.must(id(r, c), id(r+1, c))
			}
		}
	}
	return b.graph(), nil
}

// ClusterChain returns a "chain of clusters": numClusters cliques of
// size clusterSize, with one bridge edge joining consecutive clusters.
// It produces networks with both large Δ (inside clusters) and large D
// (across the chain), the regime where CGCAST's D·Δ term is visible.
func ClusterChain(numClusters, clusterSize int) (*Graph, error) {
	if numClusters < 1 || clusterSize < 1 {
		return nil, fmt.Errorf("graph: cluster chain needs positive params, got %d clusters of %d", numClusters, clusterSize)
	}
	n := numClusters * clusterSize
	b := newBuilder(n)
	for cl := 0; cl < numClusters; cl++ {
		base := cl * clusterSize
		for i := 0; i < clusterSize; i++ {
			for j := i + 1; j < clusterSize; j++ {
				b.must(base+i, base+j)
			}
		}
		if cl > 0 {
			// Bridge from the last vertex of the previous cluster to the
			// first vertex of this one.
			b.must(base-1, base)
		}
	}
	return b.graph(), nil
}

// GNP returns an Erdős–Rényi G(n, p) graph. It retries up to 64 seeds
// derived from r until the sample is connected, and errors if none is.
func GNP(n int, p float64, r *rng.Source) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: GNP needs n >= 1, got %d", n)
	}
	for attempt := 0; attempt < 64; attempt++ {
		b := newBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bernoulli(p) {
					b.must(u, v)
				}
			}
		}
		if g := b.graph(); g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: GNP(n=%d, p=%v) produced no connected sample in 64 attempts", n, p)
}

// Geometry is the point set a unit-disk graph was realized from: node
// i sits at (X[i], Y[i]) in the unit square and edges connect pairs
// within Radius. Mobility models move these points and re-derive the
// edge set, so the geometry travels with the scenario.
type Geometry struct {
	X, Y   []float64
	Radius float64
}

// InRange reports whether nodes u and v are within transmission range.
func (ge *Geometry) InRange(u, v int) bool {
	dx, dy := ge.X[u]-ge.X[v], ge.Y[u]-ge.Y[v]
	return float64(dx*dx)+float64(dy*dy) <= ge.Radius*ge.Radius
}

// Clone returns a deep copy (mobility models mutate positions per run
// while the scenario's realized geometry stays fixed).
func (ge *Geometry) Clone() *Geometry {
	return &Geometry{
		X:      append([]float64(nil), ge.X...),
		Y:      append([]float64(nil), ge.Y...),
		Radius: ge.Radius,
	}
}

// UnitDisk returns a random geometric (unit-disk) graph: n points
// uniform in the unit square, edges between pairs within the given
// radius. Retries until connected, erroring after 64 attempts. Unit
// disk graphs are the standard abstraction for wireless transmission
// ranges.
func UnitDisk(n int, radius float64, r *rng.Source) (*Graph, error) {
	g, _, err := UnitDiskGeometry(n, radius, r)
	return g, err
}

// UnitDiskGeometry is UnitDisk returning the realized point set as
// well, for mobility models that need the geometry the edges came
// from.
func UnitDiskGeometry(n int, radius float64, r *rng.Source) (*Graph, *Geometry, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("graph: UnitDisk needs n >= 1, got %d", n)
	}
	r2 := radius * radius
	for attempt := 0; attempt < 64; attempt++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = r.Float64()
			ys[i] = r.Float64()
		}
		b := newBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				dx, dy := xs[u]-xs[v], ys[u]-ys[v]
				if float64(dx*dx)+float64(dy*dy) <= r2 {
					b.must(u, v)
				}
			}
		}
		if g := b.graph(); g.Connected() {
			return g, &Geometry{X: xs, Y: ys, Radius: radius}, nil
		}
	}
	return nil, nil, fmt.Errorf("graph: UnitDisk(n=%d, radius=%v) produced no connected sample in 64 attempts", n, radius)
}

// RandomRegularish returns a connected graph where every vertex has
// degree close to d, built by threading a Hamiltonian cycle (for
// connectivity) and adding random chords. Exact regularity is not
// guaranteed, but degrees stay within [2, d+1]. Useful for sweeping Δ
// at fixed n.
func RandomRegularish(n, d int, r *rng.Source) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: RandomRegularish needs n >= 3, got %d", n)
	}
	if d < 2 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegularish needs 2 <= d < n, got d=%d n=%d", d, n)
	}
	b := newBuilder(n)
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		// n >= 3, so the cycle's n edges are distinct.
		b.must(perm[i], perm[(i+1)%n])
	}
	// Add chords until average degree reaches d, never exceeding d+1 on
	// any endpoint.
	target := n * d / 2
	tries := 0
	for b.m < target && tries < 50*n*d {
		tries++
		u, v := r.Intn(n), r.Intn(n)
		if u == v || b.nbr.Get(u, v) || int(b.deg[u]) > d || int(b.deg[v]) > d {
			continue
		}
		b.must(u, v)
	}
	return b.graph(), nil
}
