// Package radio implements the synchronous cognitive-radio network
// model of Section 3 of the paper.
//
// Time is divided into discrete slots. In each slot every node tunes
// its transceiver to one of its c channels (named by a node-local
// label) and either broadcasts, listens, or idles. A listening node u
// hears a message iff exactly one neighbor of u broadcasts on u's
// current channel in that slot; silence and collisions (two or more
// broadcasting neighbors) are indistinguishable — there is no collision
// detection. A broadcasting node "receives" only its own message.
//
// Protocols are written against the Protocol interface (or, for
// protocol sets backed by a shared bank, the RangeProtocol ABI) and
// stepped by one slot loop, BatchEngine, which runs B independent
// replicas of a network in lockstep; Engine is its single-run front
// end. A plain Protocol set runs on the range ABI through an adapter
// that calls Act and Observe node by node, so every run takes the same
// path. Runs are deterministic because randomness lives in per-node
// streams and every phase visits nodes in ascending order.
//
// # Slot anatomy
//
// Each slot, every active replica runs in turn:
//
//  1. Topology: an installed TopologyFeed is stepped, mutating the
//     replica's private graph.Dynamic view (node churn, link flapping,
//     mobility). Down nodes neither transmit nor observe. Static runs
//     never construct the view and resolve against the shared graph.
//  2. Collect: one ActRange per maximal run of live nodes (one call
//     while all are live) fills the action scratch, folded at once into
//     per-node kind/channel arrays plus the lists of broadcasters and
//     listeners.
//  3. Index: broadcasters are bucketed by global channel into a
//     compact per-slot index — a count per channel plus an intrusive
//     per-channel broadcaster list, and a bitset row for dense
//     channels (O(broadcasters)).
//  4. Resolve/observe: only the listeners are resolved, by one loop
//     for every replica (a jammer first drops the listeners on jammed
//     channels). A listener on a channel with zero broadcasters
//     resolves to silence in O(1); a dense channel with one
//     AND/popcount sweep of the listener's adjacency row; otherwise the
//     shorter of the channel's broadcaster list and the listener's
//     neighbor list is walked. Traces then fire per delivery, and one
//     ObserveRange per run of live nodes hands every live node its
//     Delivery.
//  5. Reactive jammers (ActivitySink) are fed the slot's broadcast
//     counts, the index is reset, and completion flags are refreshed.
package radio

import (
	"context"
	"fmt"

	"crn/internal/chanassign"
	"crn/internal/graph"
)

// NodeID identifies a node (its index in the graph).
type NodeID int32

// Kind enumerates what a node does with its transceiver in one slot.
type Kind uint8

// Transceiver actions. A node does exactly one per slot.
const (
	Idle Kind = iota + 1
	Listen
	Broadcast
)

// Delivery is one node's resolved slot outcome, the one value every
// observer gets: Protocol.Observe, a bank's ObserveRange and a
// TraceFunc. A delivery is its sender's identity: From is the
// broadcaster heard (exactly one broadcasting neighbor on the node's
// channel), and From < 0 means the node heard nothing — silence,
// collision, jam, or a non-listening action. Frames carry no payload:
// every primitive of the model is decided by who hears whom, and a
// protocol that relays a message tracks which nodes hold it, not its
// content.
//
// The zero value Delivery{} means "heard node 0", not silence: code
// that reports silence must write Delivery{From: -1}, the value the
// engine keeps in every entry between slots.
type Delivery struct {
	From NodeID
}

// Action is a node's decision for one slot. Ch is a local channel
// label in [0, c); it is ignored for Idle. A broadcast sends the
// node's identity (see Delivery).
type Action struct {
	Kind Kind
	Ch   int
}

// Protocol is a node-local state machine driven by the engine.
//
// Each slot the engine calls Act once, resolves the radio, then calls
// Observe exactly once: d.From >= 0 iff the node listened and heard a
// frame (exactly one broadcasting neighbor on its channel). d is the
// protocol's own copy. The engine never calls Act again after Done
// reports true.
type Protocol interface {
	Act(slot int64) Action
	Observe(slot int64, d Delivery)
	Done() bool
}

// FixedSchedule is optionally implemented by protocols whose Done
// cannot report true before a statically known number of observed
// slots. The engine then skips the per-slot Done poll until that many
// slots have elapsed — a measurable saving, since polling is an
// interface call per live node per slot. MinDoneSlots is a lower
// bound on the protocol's lifetime, not necessarily exact: Done is
// still polled every slot once the bound has passed. The method name
// is deliberately distinct from the common TotalSlots schedule
// accessor so protocols opt in explicitly — implementing MinDoneSlots
// asserts that Done() is false whenever fewer than that many slots
// have been observed.
type FixedSchedule interface {
	MinDoneSlots() int64
}

// Stats aggregates engine counters for one run.
type Stats struct {
	// Slots is the number of slots executed.
	Slots int64
	// Broadcasts, Listens and Idles count node-slot actions.
	Broadcasts int64
	Listens    int64
	Idles      int64
	// Deliveries counts messages heard by listeners.
	Deliveries int64
	// Collisions counts listener-slots lost to two or more
	// simultaneously broadcasting neighbors.
	Collisions int64
	// JammedListens counts listener-slots lost to primary users.
	JammedListens int64
	// EdgeAdds and EdgeRemoves count topology mutations a TopologyFeed
	// actually applied. Neither no-op reconciliations nor the feed's
	// first Step on an engine (which re-establishes current state over
	// the freshly cloned base topology) are counted, so the counters
	// reflect model events even across multi-engine pipelines. Zero on
	// static runs.
	EdgeAdds    int64
	EdgeRemoves int64
	// NodeJoins and NodeLeaves count up/down transitions a TopologyFeed
	// applied; DownSlots counts node-slots spent down (neither
	// transmitting nor observing). Zero on static runs.
	NodeJoins  int64
	NodeLeaves int64
	DownSlots  int64
	// PartitionLosses counts listener-slots in which the base (static)
	// topology would have delivered a frame but the current topology
	// did not deliver that frame — deliveries lost to edges churned
	// away (or gained) underneath the protocols. Down nodes do not
	// listen, so their losses show up as DownSlots instead. Zero on
	// static runs.
	PartitionLosses int64
	// Completed reports whether every protocol finished before the
	// slot budget ran out.
	Completed bool
}

// Accumulate adds o's slot and counter fields into s — the helper
// multi-engine pipelines (CGCAST's setup stages plus dissemination)
// use to combine Stats. Completed is left untouched.
func (s *Stats) Accumulate(o Stats) {
	s.Slots += o.Slots
	s.Broadcasts += o.Broadcasts
	s.Listens += o.Listens
	s.Idles += o.Idles
	s.Deliveries += o.Deliveries
	s.Collisions += o.Collisions
	s.JammedListens += o.JammedListens
	s.EdgeAdds += o.EdgeAdds
	s.EdgeRemoves += o.EdgeRemoves
	s.NodeJoins += o.NodeJoins
	s.NodeLeaves += o.NodeLeaves
	s.DownSlots += o.DownSlots
	s.PartitionLosses += o.PartitionLosses
}

// TraceFunc observes every delivery the engine resolves, for debugging
// and the crntrace tool: d is the Delivery the listener then observes
// (d.From >= 0). Within a slot a run's traces fire in ascending
// listener order, all before that run's Observe/ObserveRange calls for
// the slot.
type TraceFunc func(slot int64, listener NodeID, globalCh int32, d Delivery)

// Jammer reports primary-user occupancy per (slot, global channel).
// A frame broadcast on an occupied channel is lost and a listener
// tuned there hears only silence — secondary users cannot use spectrum
// a primary user holds. Implementations must be deterministic. A
// stateless Jammer must also be safe for concurrent readers: sweep
// workers share one instance across runs on different goroutines
// (stateful jammers are run-scoped instead, see spectrum.RunScoped).
// internal/spectrum provides standard models.
type Jammer interface {
	Jammed(slot int64, ch int32) bool
}

// ActivitySink is optionally implemented by Jammers that react to
// secondary-user activity (adversarial models). After every slot
// resolves, the engine calls ObserveActivity exactly once with the
// number of broadcasts per global channel for that slot. The slice is
// a read-only scratch buffer the engine reuses — implementations must
// copy what they keep and must not write into it (the engine only
// re-zeroes the entries it set, so a stray write would persist as
// phantom activity). Because the engine only queries Jammed for slots
// after the latest ObserveActivity call's slot, reactive jammers see
// activity with at least a one-slot delay — the adversary can sense,
// but not react within a slot.
type ActivitySink interface {
	ObserveActivity(slot int64, broadcastsByChannel []int)
}

// TopologyMutator is the engine-side handle a TopologyFeed mutates
// topology through: the three mutations feeds make, and no queries.
// Mutations apply to the engine's private dynamic view (the network's
// base graph is never touched) and take effect in the slot about to
// execute. Edge mutations keep what resolution reads — sorted
// adjacency and the dense bit matrix — updated incrementally. The
// boolean results report whether anything actually changed, so feeds
// may reconcile desired state declaratively, a feed that toggles
// state can read the old state from them, and the engine counts only
// real changes.
type TopologyMutator interface {
	// SetNodeUp sets a node up or down and reports whether the state
	// changed. Down nodes neither transmit nor observe; their
	// protocols freeze on their local clocks until rejoin.
	SetNodeUp(u int, up bool) bool
	// AddEdge inserts {u, v}; no-op (false) when present or invalid.
	AddEdge(u, v int) bool
	// RemoveEdge deletes {u, v}; no-op (false) when absent or invalid.
	RemoveEdge(u, v int) bool
}

// TopologyFeed drives per-slot topology mutation — node churn, link
// flapping, mobility. It mirrors ActivitySink on the input side:
// before each slot's collect phase, the engine calls Step exactly
// once, so mutations apply between slots and are never concurrent with
// protocol work. Slot s's actions see every mutation Step(s, ·)
// applied; a reactive jammer observing slot s's activity therefore
// senses traffic that already ran on the mutated topology.
//
// Implementations must be deterministic (seed their randomness via
// rng.Split) and, when stateful, run-scoped: callers sharing one
// scenario across concurrent runs install a fresh instance per run
// (internal/dynamics models implement a NewRun constructor the facade
// uses, mirroring spectrum.RunScoped).
type TopologyFeed interface {
	Step(slot int64, mut TopologyMutator)
}

// Network bundles the instance a protocol runs on.
type Network struct {
	Graph  *graph.Graph
	Assign *chanassign.Assignment
	// Jammer optionally models primary users; nil means clear spectrum.
	// A Jammer that also implements ActivitySink receives per-slot
	// activity reports.
	Jammer Jammer
	// Topology optionally makes the topology time-varying: the engine
	// clones Graph into a private mutable view and calls the feed once
	// per slot. nil means the static model of the paper. Graph itself
	// is never mutated.
	Topology TopologyFeed
	// Trace optionally observes every delivery the engine resolves, in
	// slot order on the engine's goroutine.
	Trace TraceFunc
}

// Validate checks the graph/assignment pair is consistent.
func (nw *Network) Validate() error {
	if nw.Graph == nil || nw.Assign == nil {
		return fmt.Errorf("radio: network needs both graph and assignment")
	}
	if nw.Graph.N() != nw.Assign.N() {
		return fmt.Errorf("radio: graph has %d nodes, assignment %d", nw.Graph.N(), nw.Assign.N())
	}
	return nil
}

// Engine steps one protocol set over a network: the single-run front
// end over a one-replica BatchEngine, which owns the slot loop.
// Construct, Run (again with a larger budget to continue), inspect
// stats.
type Engine struct {
	be *BatchEngine
}

// NewEngine constructs an engine for the given network and per-node
// protocols (len must equal the node count). Adjacency probes read the
// graph's dense matrix.
func NewEngine(nw *Network, protocols []Protocol) (*Engine, error) {
	be, err := NewBatchEngine(nw.Graph, nw.Assign, []Replica{{
		Protocols: protocols,
		Jammer:    nw.Jammer,
		Trace:     nw.Trace,
		Topology:  nw.Topology,
	}})
	if err != nil {
		return nil, err
	}
	return &Engine{be: be}, nil
}

// Slot returns the number of slots executed so far.
func (e *Engine) Slot() int64 { return e.be.slot }

// Release hands the engine's scratch back for reuse (see
// BatchEngine.Release); the engine must not run again.
func (e *Engine) Release() { e.be.Release() }

// Stats returns counters accumulated so far.
func (e *Engine) Stats() Stats { return e.be.stats[0] }

// Run executes slots until every protocol reports Done or maxSlots
// have elapsed. It can be called again to continue a run with a larger
// budget.
func (e *Engine) Run(maxSlots int64) Stats {
	return e.RunUntil(maxSlots, nil)
}

// RunUntil executes slots like Run but additionally stops as soon as
// stop returns true (checked after each slot). Harnesses use it to
// measure time-to-goal for protocols whose own schedules are
// fixed-length (e.g. "slots until every node knows all neighbors").
func (e *Engine) RunUntil(maxSlots int64, stop func(slot int64) bool) Stats {
	st, _ := e.RunUntilCtx(context.Background(), maxSlots, stop)
	return st
}

// RunUntilCtx is RunUntil with cooperative cancellation (see
// BatchEngine.RunCtx): a cancelled run returns the stats accumulated
// so far together with ctx.Err(). A nil ctx means
// context.Background(). A later call continues the run, also after the
// stop predicate fired.
func (e *Engine) RunUntilCtx(ctx context.Context, maxSlots int64, stop func(slot int64) bool) (Stats, error) {
	be := e.be
	if rp := &be.reps[0]; !rp.active && rp.nDone < be.n {
		rp.active = true
		be.nActive = 1
	}
	var rstop func(int, int64) bool
	if stop != nil {
		rstop = func(_ int, slot int64) bool { return stop(slot) }
	}
	st, err := be.RunCtx(ctx, maxSlots, rstop)
	return st[0], err
}
