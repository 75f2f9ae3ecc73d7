package graph

import "slices"

// Dynamic is a mutable view of a graph for time-varying topologies:
// node mobility and link flapping mutate the edge set between radio
// slots, so the view supports incremental edge insertion and removal
// while keeping the two structures the radio engine resolves through —
// sorted adjacency lists and the dense bit matrix.
//
// It keeps nothing else: the view's Edges() is nil and its M() is 0.
// Nothing reads a view's edge list; code that needs the edges reads
// the base graph's.
//
// NewDynamic deep-copies the base graph, so the base stays immutable
// (scenarios are shared read-only across sweep workers; each run
// mutates its own clone) and remains available as the reference
// topology for partition-loss accounting. The copy is a constant
// number of allocations: the matrix clone and one array holding every
// adjacency list as a capacity-limited window.
//
// Costs per mutation: two matrix bit updates plus an O(Δ) scan and
// shift of the two adjacency lists (Δ is small and a list is one or
// two cache lines of int32s, so the scan beats a binary search's
// per-probe branches) — no re-sort, no rebuild. An insertion into a
// full window moves only that node's list out of the shared array; a
// removal shrinks the list within its own window.
type Dynamic struct {
	g *Graph
}

// NewDynamic returns a mutable deep copy of base's adjacency and
// matrix. The base graph is left untouched.
func NewDynamic(base *Graph) *Dynamic {
	g := &Graph{n: base.n, adj: make([][]int32, base.n), nbr: base.nbr.Clone()}
	flat := slices.Concat(base.adj...)
	off := 0
	for u, nbrs := range base.adj {
		end := off + len(nbrs)
		g.adj[u] = flat[off:end:end]
		off = end
	}
	return &Dynamic{g: g}
}

// Graph returns the mutable view. The radio engine reads topology
// through this pointer, so mutations are visible to the next slot's
// resolution immediately; callers must only mutate between slots.
func (d *Dynamic) Graph() *Graph { return d.g }

// AddEdge inserts the undirected edge {u, v} incrementally. It
// reports whether the topology changed: self-loops, out-of-range
// endpoints and already-present edges are no-ops returning false
// (dynamics models reconcile desired state declaratively, so
// redundant calls are expected, not errors).
func (d *Dynamic) AddEdge(u, v int) bool {
	g := d.g
	if u == v || u < 0 || u >= g.n || v < 0 || v >= g.n || g.HasEdge(u, v) {
		return false
	}
	insertSorted(&g.adj[u], int32(v))
	insertSorted(&g.adj[v], int32(u))
	g.nbr.Set(u, v)
	g.nbr.Set(v, u)
	return true
}

// RemoveEdge deletes the undirected edge {u, v} incrementally. It
// reports whether the topology changed; absent edges are a no-op.
func (d *Dynamic) RemoveEdge(u, v int) bool {
	g := d.g
	if !g.HasEdge(u, v) {
		return false
	}
	removeSorted(&g.adj[u], int32(v))
	removeSorted(&g.adj[v], int32(u))
	g.nbr.Unset(u, v)
	g.nbr.Unset(v, u)
	return true
}

// insertSorted inserts v into the sorted slice *a (v known absent).
// Adjacency lists are short (mean degree), so a linear position scan
// beats sort.Search's per-probe closure calls. *a is a
// capacity-limited window, so a full one is moved out by append and
// never grows into the next node's list.
func insertSorted(a *[]int32, v int32) {
	s := *a
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	*a = s
}

// removeSorted deletes v from the sorted slice *a (v known present),
// within its window.
func removeSorted(a *[]int32, v int32) {
	s := *a
	i := 0
	for s[i] != v {
		i++
	}
	copy(s[i:], s[i+1:])
	*a = s[:len(s)-1]
}
