// Package coloring implements the randomized node-coloring procedure
// CGCAST uses to edge-color the network (Section 5.2, an adaptation of
// Luby's algorithm [13]).
//
// The algorithm proceeds in phases of two steps. At the start of a
// phase every still-active node flips a coin; with probability 1/2 it
// proposes a uniformly random color from its remaining plate. Nodes
// exchange proposals with neighbors (step one); any two neighbors that
// proposed the same color both give up, everyone else keeps the
// proposal and decides. In step two the deciders announce their final
// colors; neighbors strike those colors from their plates and continue.
// Lemma 8: with a plate of 2Δ colors, O(lg n) phases suffice w.h.p.
//
// The per-node phase logic lives in NodeState so that the standalone
// solver here and CGCAST's in-model embedding (which exchanges the same
// information over CSEEK executions) share one implementation. A
// NodeState holds only the color and the proposal, by value; the
// plates of all nodes are the rows of one bit matrix (NewPlates) that
// the caller holds and hands to each step with the node's row.
package coloring

import (
	"fmt"

	"crn/internal/bitset"
	"crn/internal/graph"
	"crn/internal/rng"
)

// NoColor marks an undecided node.
const NoColor = -1

// NewPlates returns the full plates of n nodes as the rows of one
// n×numColors bit matrix: row u holds node u's remaining colors.
func NewPlates(n, numColors int) *bitset.Matrix {
	m := bitset.NewMatrix(n, numColors)
	m.Fill()
	return m
}

// NodeState is the per-node (or, in CGCAST, per-virtual-node) coloring
// state machine, apart from its plate. It holds no pointers, so a run
// lays its states out in one slice.
type NodeState struct {
	color    int32
	proposal int32
}

// NewNodeState returns an active node with no proposal.
func NewNodeState() NodeState { return NodeState{color: NoColor, proposal: NoColor} }

// Active reports whether the node still needs a color.
func (ns *NodeState) Active() bool { return ns.color == NoColor }

// Color returns the decided color, or NoColor.
func (ns *NodeState) Color() int { return int(ns.color) }

// Propose starts a phase: with probability 1/2 the node picks a
// uniform color from its plate, row u of plates, and returns it;
// otherwise (or if already decided) it returns NoColor.
func (ns *NodeState) Propose(plates *bitset.Matrix, u int, r *rng.Source) int {
	ns.proposal = NoColor
	if !ns.Active() || !r.Bool() {
		return NoColor
	}
	avail := plates.Count(u)
	if avail == 0 {
		// Cannot happen with a 2Δ plate (Lemma 8 precondition);
		// degrade to sitting the phase out rather than panicking.
		return NoColor
	}
	c, _ := plates.NthElem(u, r.Intn(avail))
	ns.proposal = int32(c)
	return c
}

// ResolveConflicts completes step one: the node keeps its proposal and
// decides iff no conflicting proposal appears among its neighbors'
// proposals. Returns true if the node decided this phase.
func (ns *NodeState) ResolveConflicts(neighborProposals []int) bool {
	if ns.proposal == NoColor {
		return false
	}
	for _, p := range neighborProposals {
		if p == int(ns.proposal) {
			ns.proposal = NoColor
			return false
		}
	}
	ns.color = ns.proposal
	ns.proposal = NoColor
	return true
}

// ObserveDecisions completes step two: colors decided by neighbors are
// struck from the node's plate, row u of plates.
func (ns *NodeState) ObserveDecisions(plates *bitset.Matrix, u int, neighborColors []int) {
	if !ns.Active() {
		return
	}
	for _, c := range neighborColors {
		if c >= 0 {
			plates.Unset(u, c)
		}
	}
}

// Result is the outcome of a standalone coloring run.
type Result struct {
	// Colors[u] is node u's color.
	Colors []int
	// Phases is the number of phases executed.
	Phases int
	// Completed reports whether every node decided within the budget.
	Completed bool
}

// Run colors g with numColors colors using at most maxPhases phases.
// Per Lemma 8, numColors = 2Δ(G_orig) and maxPhases = Θ(lg n) succeed
// w.h.p. when g is a line graph of a graph with max degree Δ; the
// solver itself works for any graph with numColors > maxDegree(g).
func Run(g *graph.Graph, numColors, maxPhases int, r *rng.Source) (Result, error) {
	if numColors <= g.MaxDegree() {
		return Result{}, fmt.Errorf("coloring: %d colors cannot color max degree %d", numColors, g.MaxDegree())
	}
	n := g.N()
	states := make([]NodeState, n)
	for u := range states {
		states[u] = NewNodeState()
	}
	plates := NewPlates(n, numColors)

	proposals := make([]int, n)
	decided := make([]int, n)
	var scratch []int
	phases := 0
	remaining := n
	for phases < maxPhases && remaining > 0 {
		phases++
		// Step one: propose.
		for u := 0; u < n; u++ {
			proposals[u] = states[u].Propose(plates, u, r)
		}
		// Step one: exchange proposals, resolve conflicts.
		for u := 0; u < n; u++ {
			decided[u] = NoColor
			if proposals[u] == NoColor {
				continue
			}
			scratch = scratch[:0]
			for _, v := range g.Neighbors(u) {
				scratch = append(scratch, proposals[v])
			}
			if states[u].ResolveConflicts(scratch) {
				decided[u] = states[u].Color()
				remaining--
			}
		}
		// Step two: exchange decisions, shrink plates.
		for u := 0; u < n; u++ {
			if !states[u].Active() {
				continue
			}
			scratch = scratch[:0]
			for _, v := range g.Neighbors(u) {
				scratch = append(scratch, decided[v])
			}
			states[u].ObserveDecisions(plates, u, scratch)
		}
	}

	res := Result{
		Colors:    make([]int, n),
		Phases:    phases,
		Completed: remaining == 0,
	}
	for u := 0; u < n; u++ {
		res.Colors[u] = states[u].Color()
	}
	return res, nil
}

// Validate checks that colors is a proper coloring of g using colors
// in [0, numColors).
func Validate(g *graph.Graph, colors []int, numColors int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d nodes", len(colors), g.N())
	}
	for u, c := range colors {
		if c < 0 || c >= numColors {
			return fmt.Errorf("coloring: node %d has color %d outside [0,%d)", u, c, numColors)
		}
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			return fmt.Errorf("coloring: adjacent nodes %d and %d share color %d", e.U, e.V, colors[e.U])
		}
	}
	return nil
}
