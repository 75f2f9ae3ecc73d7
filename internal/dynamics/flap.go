package dynamics

import (
	"fmt"

	"crn/internal/graph"
	"crn/internal/radio"
)

// EdgeFlap models link-quality churn as independent per-edge Markov
// on/off chains over the base edge set: a present edge drops with
// probability pDrop per slot and an absent edge restores with
// probability pRestore per slot (mean outage 1/pRestore slots) — the
// fading/shadowing picture in which radios stay put but links come
// and go. Edges never in the base set are never created.
//
// Determinism: edge i's chain runs on rng.New(seed).Split(i) with the
// base edges in their sorted (U, V) order, so the trajectory is a
// pure function of (seed, base edge list). Waiting times between flips
// are drawn directly (geometric skip-ahead; see calendar.go), so a
// slot with no flips costs O(1) instead of one Bernoulli draw per
// base edge.
type EdgeFlap struct {
	edges    []graph.Edge
	pDrop    float64
	pRestore float64
	seed     uint64
	chains   chains // one per base edge; off is absent
	lastMut  radio.TopologyMutator
}

// NewEdgeFlap returns a flapping model over the given base edges
// (callers pass Graph.Edges(); the slice is copied). Probabilities
// must be in [0, 1].
func NewEdgeFlap(edges []graph.Edge, pDrop, pRestore float64, seed uint64) (*EdgeFlap, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("dynamics: edge flap needs at least one base edge")
	}
	if pDrop < 0 || pDrop > 1 || pRestore < 0 || pRestore > 1 {
		return nil, fmt.Errorf("dynamics: flap probabilities must be in [0,1], got %v and %v", pDrop, pRestore)
	}
	return &EdgeFlap{
		edges:    append([]graph.Edge(nil), edges...),
		pDrop:    pDrop,
		pRestore: pRestore,
		seed:     seed,
		chains:   newChains(len(edges), pDrop, pRestore, seed),
	}, nil
}

// NewRun implements RunScoped.
func (f *EdgeFlap) NewRun() radio.TopologyFeed {
	fresh, err := NewEdgeFlap(f.edges, f.pDrop, f.pRestore, f.seed)
	if err != nil {
		panic(err) // validated at construction
	}
	return fresh
}

// Step implements radio.TopologyFeed: apply the flips due this step
// and reconcile the engine's edge set.
func (f *EdgeFlap) Step(_ int64, mut radio.TopologyMutator) {
	if mut != f.lastMut {
		// New engine (multi-stage pipeline): re-establish current state
		// over its fresh base topology.
		f.lastMut = mut
		for i, absent := range f.chains.off {
			f.set(mut, i, absent)
		}
	}
	f.chains.step(func(i int, absent bool) { f.set(mut, i, absent) })
}

// set removes base edge i from mut if absent, and adds it otherwise.
func (f *EdgeFlap) set(mut radio.TopologyMutator, i int, absent bool) {
	u, v := int(f.edges[i].U), int(f.edges[i].V)
	if absent {
		mut.RemoveEdge(u, v)
	} else {
		mut.AddEdge(u, v)
	}
}
