// Package chanassign generates and validates channel assignments for
// cognitive radio networks.
//
// Each node has a radio that can access exactly c channels drawn from a
// global universe; neighboring nodes must share at least k and at most
// kmax channels (Section 3 of the paper). Crucially, there is no global
// channel labeling: each node refers to its channels by local labels
// 0..c-1, and the mapping from local labels to global channels is a
// per-node permutation that the algorithms never see.
package chanassign

import (
	"fmt"
	"slices"

	"crn/internal/graph"
	"crn/internal/rng"
)

// Assignment is a complete channel assignment for an n-node network.
//
// Every node has exactly C channels, so the assignment is three n×C
// row-major tables whatever the size of the universe (SharedCore's is
// k + n(c−k)): storage is O(n·C), and a node's lookups touch only its
// own row.
type Assignment struct {
	// Universe is the number of global channels.
	Universe int
	// C is the number of channels each node can access.
	C int
	// l2g[u*C+l] is the global channel behind node u's local label l.
	// The radio engine resolves a global channel per non-idle node per
	// slot through it (Flat), as one indexed load.
	l2g []int32
	// chans[u*C:(u+1)*C] is node u's channel set in ascending order.
	chans []int32
	// labels[u*C+i] is node u's local label for chans[u*C+i].
	labels []int32
}

// newAssignment labels the ascending channel rows in chans (n rows of
// c). Local labels are a random permutation of each node's row, drawn
// in node order, modeling the absence of a global channel labeling.
func newAssignment(universe, c int, chans []int32, r *rng.Source) *Assignment {
	a := &Assignment{
		Universe: universe,
		C:        c,
		l2g:      make([]int32, len(chans)),
		chans:    chans,
		labels:   make([]int32, len(chans)),
	}
	for row := 0; row < len(chans); row += c {
		for local, i := range r.Perm(c) {
			a.l2g[row+local] = chans[row+i]
			a.labels[row+i] = int32(local)
		}
	}
	return a
}

// N returns the number of nodes.
func (a *Assignment) N() int { return len(a.l2g) / a.C }

// row returns node u's ascending channel set.
func (a *Assignment) row(u int) []int32 { return a.chans[u*a.C : (u+1)*a.C] }

// Global maps node u's local label to a global channel. It panics when
// local is outside [0, C).
func (a *Assignment) Global(u, local int) int32 {
	if uint(local) >= uint(a.C) {
		panic(fmt.Sprintf("chanassign: node %d has no local label %d (C = %d)", u, local, a.C))
	}
	return a.l2g[u*a.C+local]
}

// Flat exposes the row-major local→global label table (row stride C):
// Flat()[u*C+local] == Global(u, local). Hot engine loops that
// validate the local label themselves use it to skip Global's per-call
// guard; callers must not modify the slice.
func (a *Assignment) Flat() ([]int32, int) { return a.l2g, a.C }

// Local maps a global channel to node u's local label, or -1 if node u
// cannot access that channel: a binary search of u's row, O(log C).
func (a *Assignment) Local(u int, global int32) int32 {
	if i, ok := slices.BinarySearch(a.row(u), global); ok {
		return a.labels[u*a.C+i]
	}
	return -1
}

// SharedCount returns the number of channels nodes u and v share: one
// merge of their two ascending rows, O(C).
func (a *Assignment) SharedCount(u, v int) int {
	ru, rv := a.row(u), a.row(v)
	shared := 0
	for i, j := 0, 0; i < len(ru) && j < len(rv); {
		switch {
		case ru[i] < rv[j]:
			i++
		case ru[i] > rv[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return shared
}

// OverlapRange returns the minimum and maximum pairwise overlap over
// the edges of g (the realized k and kmax). For edgeless graphs it
// returns (0, 0).
func (a *Assignment) OverlapRange(g *graph.Graph) (kMin, kMax int) {
	first := true
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		if first {
			kMin, kMax = s, s
			first = false
			continue
		}
		if s < kMin {
			kMin = s
		}
		if s > kMax {
			kMax = s
		}
	}
	return kMin, kMax
}

// Validate checks structural invariants: every node's row holds C
// distinct channels of the universe in ascending order, its labels are
// a permutation of [0, C) that the label table inverts, and every edge
// of g shares between k and kmax channels.
func (a *Assignment) Validate(g *graph.Graph, k, kmax int) error {
	if g.N() != a.N() {
		return fmt.Errorf("chanassign: graph has %d nodes, assignment %d", g.N(), a.N())
	}
	seen := make([]bool, a.C)
	for u := 0; u < a.N(); u++ {
		clear(seen)
		row := a.row(u)
		for i, gch := range row {
			if gch < 0 || int(gch) >= a.Universe {
				return fmt.Errorf("chanassign: node %d channel %d outside [0,%d)", u, gch, a.Universe)
			}
			if i > 0 && gch <= row[i-1] {
				return fmt.Errorf("chanassign: node %d channels not strictly ascending at %d", u, gch)
			}
			l := a.labels[u*a.C+i]
			if l < 0 || int(l) >= a.C || seen[l] {
				return fmt.Errorf("chanassign: node %d label %d of channel %d is out of range or repeated", u, l, gch)
			}
			seen[l] = true
			if back := a.l2g[u*a.C+int(l)]; back != gch {
				return fmt.Errorf("chanassign: node %d channel %d->label %d->%d roundtrip mismatch", u, gch, l, back)
			}
		}
	}
	for _, e := range g.Edges() {
		s := a.SharedCount(int(e.U), int(e.V))
		if s < k || s > kmax {
			return fmt.Errorf("chanassign: edge (%d,%d) shares %d channels, want [%d,%d]", e.U, e.V, s, k, kmax)
		}
	}
	return nil
}

// SharedCore assigns every node the same k "core" channels plus c-k
// channels private to that node. Every pair of neighbors therefore
// shares exactly k channels (the kmax = k regime in which Theorem 4
// matches the lower bound). Universe size is k + n·(c-k).
func SharedCore(n, c, k int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, k, k); err != nil {
		return nil, err
	}
	chans := make([]int32, n*c)
	for u := 0; u < n; u++ {
		row := chans[u*c : (u+1)*c]
		for g := 0; g < k; g++ {
			row[g] = int32(g)
		}
		// Node u's private channels start at k + u(c-k).
		for i := k; i < c; i++ {
			row[i] = int32(i + u*(c-k))
		}
	}
	return newAssignment(k+n*(c-k), c, chans, r), nil
}

// SharedPool assigns every node k core channels plus c-k channels
// drawn uniformly without replacement from a shared pool of the given
// size. Neighbors share at least the k core channels and additionally
// overlap on pool channels with expectation ≈ (c-k)²/poolSize, so the
// realized kmax exceeds k by a controllable random amount.
func SharedPool(n, c, k, poolSize int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, k, c); err != nil {
		return nil, err
	}
	if poolSize < c-k {
		return nil, fmt.Errorf("chanassign: pool size %d < c-k = %d", poolSize, c-k)
	}
	chans := make([]int32, n*c)
	for u := 0; u < n; u++ {
		row := chans[u*c : (u+1)*c]
		for g := 0; g < k; g++ {
			row[g] = int32(g)
		}
		for i, p := range r.SampleK(poolSize, c-k) {
			row[k+i] = int32(k + p)
		}
		slices.Sort(row[k:])
	}
	return newAssignment(k+poolSize, c, chans, r), nil
}

// Heterogeneous assigns channels so that a chosen fraction of edges
// ("heavy" edges) share exactly kmax channels while all others share
// exactly k. This produces the kmax >> k regime where CSEEK's
// (kmax/k)·Δ term separates from the lower bound (Section 7).
//
// Heavy edges are selected greedily subject to each node's budget of
// (c-k)/(kmax-k) heavy incidences; heavyFrac is the target fraction of
// edges to make heavy (best effort).
func Heterogeneous(g *graph.Graph, c, k, kmax int, heavyFrac float64, r *rng.Source) (*Assignment, error) {
	n := g.N()
	if err := checkParams(n, c, k, kmax); err != nil {
		return nil, err
	}
	if kmax < k {
		return nil, fmt.Errorf("chanassign: kmax %d < k %d", kmax, k)
	}
	extra := kmax - k
	if extra > 0 && c-k < extra {
		return nil, fmt.Errorf("chanassign: c-k = %d cannot host kmax-k = %d extra shared channels", c-k, extra)
	}

	// Select heavy edges greedily under per-node budgets.
	budget := make([]int, n)
	if extra > 0 {
		for u := range budget {
			budget[u] = (c - k) / extra
		}
	}
	edges := g.Edges()
	order := r.Perm(len(edges))
	wantHeavy := int(heavyFrac * float64(len(edges)))
	heavy := make([]bool, len(edges))
	nHeavy := 0
	if extra > 0 {
		for _, i := range order {
			if nHeavy >= wantHeavy {
				break
			}
			e := edges[i]
			if budget[e.U] > 0 && budget[e.V] > 0 {
				heavy[i] = true
				budget[e.U]--
				budget[e.V]--
				nHeavy++
			}
		}
	}

	// Universe layout: k core channels, then one fresh block of `extra`
	// channels per heavy edge, then per-node private filler. Channels
	// are handed out in increasing order, so appending each to its
	// nodes' rows keeps every row ascending.
	chans := make([]int32, n*c)
	used := make([]int, n) // channels in each row so far
	add := func(u int, gch int32) {
		chans[u*c+used[u]] = gch
		used[u]++
	}
	for u := 0; u < n; u++ {
		for gch := 0; gch < k; gch++ {
			add(u, int32(gch))
		}
	}
	next := int32(k)
	for i, e := range edges {
		if !heavy[i] {
			continue
		}
		for j := 0; j < extra; j++ {
			add(int(e.U), next)
			add(int(e.V), next)
			next++
		}
	}
	// Private filler to reach exactly c channels per node.
	for u := 0; u < n; u++ {
		for used[u] < c {
			add(u, next)
			next++
		}
	}
	// Each heavy block stands in for 2·extra filler channels, so the
	// universe is exactly the ids dealt, [0, next).
	return newAssignment(int(next), c, chans, r), nil
}

// FromSets builds an assignment from explicit per-node global channel
// sets. Every set must have the same cardinality c (the model gives
// every transceiver exactly c channels) and list distinct channels of
// [0, universe), in any order; local labels are random permutations.
func FromSets(universe int, nodeSets [][]int, r *rng.Source) (*Assignment, error) {
	if len(nodeSets) == 0 {
		return nil, fmt.Errorf("chanassign: need at least one node")
	}
	if universe < 1 {
		return nil, fmt.Errorf("chanassign: universe must be >= 1, got %d", universe)
	}
	c := len(nodeSets[0])
	if c < 1 {
		return nil, fmt.Errorf("chanassign: node 0 has no channels")
	}
	chans := make([]int32, len(nodeSets)*c)
	for u, set := range nodeSets {
		if len(set) != c {
			return nil, fmt.Errorf("chanassign: node %d has %d channels, node 0 has %d", u, len(set), c)
		}
		row := chans[u*c : (u+1)*c]
		for i, g := range set {
			if g < 0 || g >= universe {
				return nil, fmt.Errorf("chanassign: node %d channel %d outside [0,%d)", u, g, universe)
			}
			row[i] = int32(g)
		}
		slices.Sort(row)
		for i := 1; i < c; i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("chanassign: node %d lists channel %d twice", u, row[i])
			}
		}
	}
	return newAssignment(universe, c, chans, r), nil
}

// Identical assigns every node the same c channels (the classic
// multi-channel network special case k = kmax = c). Useful as a
// degenerate regime and for COUNT tests where all nodes must meet on
// one channel.
func Identical(n, c int, r *rng.Source) (*Assignment, error) {
	if err := checkParams(n, c, c, c); err != nil {
		return nil, err
	}
	chans := make([]int32, n*c)
	for i := range chans {
		chans[i] = int32(i % c)
	}
	return newAssignment(c, c, chans, r), nil
}

// Matching builds the two-node assignment used by the Lemma 11
// reduction: nodes 0 and 1 each have c channels, overlapping on exactly
// the k pairs given by matching, where matching[i] = (a_i, b_i) means
// node 0's channel a_i is the same global channel as node 1's channel
// b_i. Channels are indices in [0, c).
func Matching(c int, pairs [][2]int, r *rng.Source) (*Assignment, error) {
	if c < 1 {
		return nil, fmt.Errorf("chanassign: c must be >= 1, got %d", c)
	}
	if len(pairs) > c {
		return nil, fmt.Errorf("chanassign: %d matched pairs exceed c = %d", len(pairs), c)
	}
	seenA := make(map[int]bool, len(pairs))
	seenB := make(map[int]bool, len(pairs))
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= c || p[1] < 0 || p[1] >= c {
			return nil, fmt.Errorf("chanassign: matching pair %v out of range [0,%d)", p, c)
		}
		if seenA[p[0]] || seenB[p[1]] {
			return nil, fmt.Errorf("chanassign: matching pair %v reuses an endpoint", p)
		}
		seenA[p[0]] = true
		seenB[p[1]] = true
	}

	// Global layout: channels 0..len(pairs)-1 are the shared ones;
	// the rest are private to one side. The label table is built
	// explicitly here (not via newAssignment's random perm) because the
	// game fixes which local label maps to which shared channel.
	a := &Assignment{
		Universe: 2*c - len(pairs),
		C:        c,
		l2g:      make([]int32, 2*c),
		chans:    make([]int32, 2*c),
		labels:   make([]int32, 2*c),
	}
	l2g0, l2g1 := a.l2g[:c], a.l2g[c:]
	for i := range a.l2g {
		a.l2g[i] = -1
	}
	for i, p := range pairs {
		l2g0[p[0]] = int32(i)
		l2g1[p[1]] = int32(i)
	}
	next := int32(len(pairs))
	for l := 0; l < c; l++ {
		if l2g0[l] == -1 {
			l2g0[l] = next
			next++
		}
		if l2g1[l] == -1 {
			l2g1[l] = next
			next++
		}
	}
	for u := 0; u < 2; u++ {
		l2g, row, labels := a.l2g[u*c:(u+1)*c], a.chans[u*c:(u+1)*c], a.labels[u*c:(u+1)*c]
		copy(row, l2g)
		slices.Sort(row)
		for l, gch := range l2g {
			i, _ := slices.BinarySearch(row, gch)
			labels[i] = int32(l)
		}
	}
	return a, nil
}

func checkParams(n, c, k, kmax int) error {
	if n < 1 {
		return fmt.Errorf("chanassign: n must be >= 1, got %d", n)
	}
	if c < 1 {
		return fmt.Errorf("chanassign: c must be >= 1, got %d", c)
	}
	if k < 0 || k > c {
		return fmt.Errorf("chanassign: k must be in [0,c] = [0,%d], got %d", c, k)
	}
	if kmax < k || kmax > c {
		return fmt.Errorf("chanassign: kmax must be in [k,c] = [%d,%d], got %d", k, c, kmax)
	}
	return nil
}
