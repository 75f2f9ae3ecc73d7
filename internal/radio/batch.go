package radio

import (
	"context"
	"fmt"

	"crn/internal/bitset"
	"crn/internal/chanassign"
	"crn/internal/graph"
)

// Replica is one independent run inside a BatchEngine: its protocols
// plus the per-run state that is not shared across the batch. The
// graph and channel assignment are shared (read-only); everything a
// run mutates or observes — protocol state, jammer state, traces,
// stats — lives on the replica.
type Replica struct {
	// Protocols is the per-node protocol set (len must equal the node
	// count).
	Protocols []Protocol
	// Jammer optionally models primary users for this replica; nil
	// means clear spectrum. A Jammer that also implements ActivitySink
	// receives this replica's per-slot activity reports.
	Jammer Jammer
	// Trace optionally observes this replica's deliveries.
	Trace TraceFunc
	// Topology optionally makes this replica's topology time-varying:
	// the engine clones the shared base graph into a replica-private
	// mutable view and steps the feed once per slot. Feeds must be
	// run-scoped (one instance per replica). nil means the static
	// model.
	Topology TopologyFeed
}

// BatchEngine is the slot loop: it steps B independent replicas of
// one network in lockstep. Every slot runs each active replica's
// topology step, collect, index, resolve/observe and done scan in
// turn over one shared set of per-slot scratch, so the graph, the
// channel assignment, the adjacency matrix and the scratch stay
// cache-resident across the whole batch instead of being rebuilt per
// run. Engine is the one-replica case.
//
// Replicas never interact: the per-slot scratch holds one replica's
// actions and channel index at a time, and everything that outlives a
// slot — node states, FixedSchedule bounds, the dynamic topology view,
// stats — is per replica. Each replica's slot outcomes (deliveries,
// collisions, stats, traces) are therefore byte-identical to running
// it alone; the batched sweep path relies on exactly that.
//
// A replica with a TopologyFeed gets a private graph.Dynamic clone of
// the shared base graph (plus its own adjacency matrix) and resolves
// against it, keeping the shared base as the partition-loss
// counterfactual. Static replicas resolve against the shared base
// graph and matrix, so mixing static and dynamic replicas in one
// batch costs clones only for the dynamic ones.
type BatchEngine struct {
	assign *chanassign.Assignment
	nbr    *bitset.Matrix
	n      int
	// flat/flatC is the assignment's row-major label table and its
	// stride C.
	flat  []int32
	flatC int

	reps    []replica
	stats   []Stats
	nActive int
	slot    int64

	// Per-slot hot state of the replica being stepped, struct-of-arrays:
	// the collect phase writes one byte (kind) and one int32 (globalCh)
	// per node, and the resolve phase reads them back with unit-stride
	// loads. acts and deliv are the range ABI's scratch, indexed by node.
	kind     []Kind
	globalCh []int32 // resolved global channel per non-idle node
	acts     []Action
	deliv    []Delivery
	// delivIdx records which nodes the resolve phase delivered into,
	// so the post-observe reset touches only those entries (deliv holds
	// From=-1 everywhere in between).
	delivIdx []int32
	// listeners and the counts below carry the collect phase's
	// classification to the resolve phase, which then visits only the
	// listeners instead of rescanning every node's kind. Node state
	// cannot change between the two phases, so the collect-time
	// classification is exactly what resolve would recompute.
	listeners              []int32
	nListen, idles, bcasts int64
	downs                  int64

	// Per-slot channel index (the "index" phase): chCount[ch] is the
	// number of broadcasters on global channel ch (zero for channels
	// not in touched), and chHead[ch]/bcastNext thread them into a
	// per-channel list (chHead[ch] is one broadcaster, bcastNext[v]
	// the next, -1 ends the list) built in one pass over bcasters.
	chCount   []int32
	chHead    []int32
	bcastNext []int32
	touched   []int32
	bcasters  []int32

	// Channel bitset rows: a channel whose broadcaster count reaches
	// rowMin gets a row of n bits from rowBuf — one bit per
	// broadcaster — so listeners resolve the whole channel with an
	// AND/popcount sweep against their neighbor-matrix row instead of
	// walking broadcaster or neighbor lists. rowOf[ch] is the channel's
	// row index this slot (-1 none); rows are cleared when (re)assigned,
	// so resetIndex only has to reset rowOf and the row cursor.
	rowBuf    []uint64
	rowOf     []int32
	rowStride int
	rowMin    int32
	rowsUsed  int32

	// activity is the broadcast count per global channel handed to
	// reactive jammers (nil when no replica has an ActivitySink).
	activity []int
}

// replica is one run's state inside the engine. It doubles as the
// TopologyMutator handed to its feed.
type replica struct {
	Replica
	// bank dispatches Act/Observe over node ranges: the protocols'
	// own shared bank when ranged (see detectRangeBank), otherwise a
	// protocolBank adapter over the per-node calls.
	bank   RangeProtocol
	ranged bool
	sink   ActivitySink
	stats  *Stats

	// g/nbr are the topology the replica resolves against: the shared
	// base pair on static runs, the private graph.Dynamic view (dyn)
	// when a feed is installed. up[u] is the feed-driven participation
	// state (dynamic replicas only). countTopo gates the Stats mutation
	// counters: false during the feed's first Step on this engine,
	// where feeds re-establish their current state against the freshly
	// cloned base topology (a multi-engine pipeline hands one feed
	// several engines) — those reconciliations set initial conditions
	// rather than model events.
	g         *graph.Graph
	nbr       *bitset.Matrix
	dyn       *graph.Dynamic
	up        []bool
	countTopo bool

	// state[u] is the node's engine status (nodeLive/nodeDone/
	// nodeDown). doneAt[u] is the earliest observed-slot count at which
	// protocol u may report Done (from FixedSchedule; 0 when unknown),
	// and minDone the minimum over live protocols, letting refreshDone
	// skip the whole scan during a homogeneous schedule's steady state.
	state   []uint8
	doneAt  []int64
	minDone int64
	nDone   int
	active  bool
}

// Node engine states, one byte per node on the hot loops. nodeDone
// dominates nodeDown: Done is terminal, so a done node that rejoins
// stays done.
const (
	nodeLive uint8 = iota
	nodeDone
	nodeDown
)

// NewBatchEngine constructs an engine over the shared (graph,
// assignment) pair and the given replicas. Adjacency probes read the
// graph's dense matrix; every replica must provide exactly one
// protocol per node.
func NewBatchEngine(g *graph.Graph, assign *chanassign.Assignment, reps []Replica) (*BatchEngine, error) {
	if err := (&Network{Graph: g, Assign: assign}).Validate(); err != nil {
		return nil, err
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("radio: batch engine needs at least one replica")
	}
	n := g.N()
	for r := range reps {
		if len(reps[r].Protocols) != n {
			return nil, fmt.Errorf("radio: replica %d has %d protocols for %d nodes", r, len(reps[r].Protocols), n)
		}
	}
	u := assign.Universe
	e := &BatchEngine{
		assign:    assign,
		nbr:       g.NeighborMatrix(),
		n:         n,
		reps:      make([]replica, len(reps)),
		stats:     make([]Stats, len(reps)),
		nActive:   len(reps),
		kind:      make([]Kind, n),
		globalCh:  make([]int32, n),
		acts:      make([]Action, n),
		deliv:     make([]Delivery, n),
		delivIdx:  make([]int32, n),
		listeners: make([]int32, n),
		chCount:   make([]int32, u),
		chHead:    make([]int32, u),
		bcastNext: make([]int32, n),
		touched:   make([]int32, 0, u),
		bcasters:  make([]int32, 0, n),
		rowOf:     make([]int32, u),
	}
	e.flat, e.flatC = assign.Flat()
	for i := range e.chHead {
		e.chHead[i] = -1
		e.rowOf[i] = -1
	}
	// resolve keeps From=-1 as the steady-state content of every entry,
	// writing (and afterwards resetting) only actual deliveries.
	for i := range e.deliv {
		e.deliv[i].From = -1
	}
	// The walk path costs ~min(count, degree) dependent probes, the
	// row path ~stride sequential word ops; rows start paying for
	// themselves once a channel has a couple of broadcasters, except on
	// large graphs where a row sweep reads stride words per listener
	// and the bar is proportionally higher. At most n/rowMin channels
	// can earn a row in a slot, which bounds the pool.
	e.rowStride = e.nbr.Stride()
	e.rowMin = int32(max(2, e.rowStride/4))
	e.rowBuf = make([]uint64, min(n/int(e.rowMin)+1, u)*e.rowStride)
	for r := range reps {
		rp := &e.reps[r]
		rp.Replica = reps[r]
		rp.stats = &e.stats[r]
		rp.active = true
		rp.g, rp.nbr = g, e.nbr
		rp.state = make([]uint8, n)
		rp.doneAt = make([]int64, n)
		if rp.Topology != nil {
			// Dynamic replica: resolve against a private mutable clone
			// so the shared base graph stays immutable.
			rp.dyn = graph.NewDynamic(g)
			rp.g = rp.dyn.Graph()
			rp.nbr = rp.g.NeighborMatrix()
			rp.up = make([]bool, n)
			for i := range rp.up {
				rp.up[i] = true
			}
		}
		rp.minDone = -1
		for i, p := range rp.Protocols {
			// FixedSchedule bounds are in observed slots; under a dynamic
			// topology a down node observes nothing, so the bounds no
			// longer map onto engine slots and the Done-poll skip is
			// disabled (doneAt stays 0 — Done is simply polled every slot).
			if fs, ok := p.(FixedSchedule); ok && rp.dyn == nil {
				rp.doneAt[i] = fs.MinDoneSlots()
			}
			if rp.minDone < 0 || rp.doneAt[i] < rp.minDone {
				rp.minDone = rp.doneAt[i]
			}
		}
		if sink, ok := rp.Jammer.(ActivitySink); ok {
			rp.sink = sink
			if e.activity == nil {
				e.activity = make([]int, u)
			}
		}
		rp.bank = detectRangeBank(rp.Protocols)
		rp.ranged = rp.bank != nil
		if !rp.ranged {
			rp.bank = &protocolBank{protocols: rp.Protocols}
		}
	}
	return e, nil
}

func (rp *replica) SetNodeUp(u int, up bool) bool {
	if u < 0 || u >= len(rp.up) || rp.up[u] == up {
		return false
	}
	rp.up[u] = up
	if rp.state[u] != nodeDone {
		if up {
			rp.state[u] = nodeLive
		} else {
			rp.state[u] = nodeDown
		}
	}
	if rp.countTopo {
		if up {
			rp.stats.NodeJoins++
		} else {
			rp.stats.NodeLeaves++
		}
	}
	return true
}

func (rp *replica) AddEdge(u, v int) bool {
	if !rp.dyn.AddEdge(u, v) {
		return false
	}
	if rp.countTopo {
		rp.stats.EdgeAdds++
	}
	return true
}

func (rp *replica) RemoveEdge(u, v int) bool {
	if !rp.dyn.RemoveEdge(u, v) {
		return false
	}
	if rp.countTopo {
		rp.stats.EdgeRemoves++
	}
	return true
}

// allLive reports whether every node of the replica is guaranteed live
// this slot: no topology feed (so nothing is ever down) and no protocol
// done yet. The collect and observe phases then dispatch the whole
// node range in one call with no per-node state checks — on a static
// run this is its whole pre-completion lifetime, i.e. the hot path.
func (rp *replica) allLive() bool { return rp.dyn == nil && rp.nDone == 0 }

// Slot returns the number of slots executed so far.
func (e *BatchEngine) Slot() int64 { return e.slot }

// Stats returns replica r's counters accumulated so far.
func (e *BatchEngine) Stats(r int) Stats { return e.stats[r] }

// Run executes slots until every replica finishes (all protocols done)
// or maxSlots elapse, returning per-replica stats.
func (e *BatchEngine) Run(maxSlots int64) []Stats {
	st, _ := e.RunCtx(context.Background(), maxSlots, nil)
	return st
}

// RunCtx is Run with cooperative cancellation and an optional
// per-replica stop predicate: stop(r, slot) is checked for each
// still-active replica after each slot, and a replica that stops is
// frozen — its protocols are no longer stepped, its stats no longer
// advance — while the rest of the batch runs on. The context is polled
// every ctxCheckMask+1 slots, and a cancelled run returns the stats
// accumulated so far together with ctx.Err(). A nil ctx means
// context.Background(). This is the cancellation point every facade
// primitive and the sweep engine thread their contexts down to.
func (e *BatchEngine) RunCtx(ctx context.Context, maxSlots int64, stop func(r int, slot int64) bool) ([]Stats, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for r := range e.reps {
		if rp := &e.reps[r]; rp.active && rp.nDone == e.n {
			e.deactivate(rp)
		}
	}
	for e.slot < maxSlots && e.nActive > 0 {
		if done != nil && e.slot&ctxCheckMask == 0 {
			select {
			case <-done:
				e.settle()
				return e.stats, ctx.Err()
			default:
			}
		}
		e.step()
		e.slot++
		for r := range e.reps {
			rp := &e.reps[r]
			if !rp.active {
				continue
			}
			rp.stats.Slots = e.slot
			// The predicate runs even on the slot the replica finishes
			// in, so goal-time harnesses still see that slot.
			if stop != nil && stop(r, e.slot) || rp.nDone == e.n {
				e.deactivate(rp)
			}
		}
	}
	e.settle()
	return e.stats, nil
}

// ctxCheckMask spaces out the cancellation polls: a non-blocking
// channel select costs tens of nanoseconds, which is comparable to a
// small slot, so polling every slot taxes the hot loop measurably.
// Polling every 16th slot keeps cancellation latency in the
// microseconds while making the poll cost invisible.
const ctxCheckMask = 15

func (e *BatchEngine) deactivate(rp *replica) {
	rp.active = false
	e.nActive--
}

// settle records each replica's completion flag.
func (e *BatchEngine) settle() {
	for r := range e.reps {
		e.stats[r].Completed = e.reps[r].nDone == e.n
	}
}

// step runs one slot of every active replica: topology, collect, index,
// resolve/observe, activity feed, index reset, done scan. Mutations
// therefore apply between slots and are never concurrent with protocol
// work; slot s's actions see every mutation Step(s, ·) applied, and a
// reactive jammer observing slot s's activity senses traffic that
// already ran on the mutated topology.
func (e *BatchEngine) step() {
	for r := range e.reps {
		rp := &e.reps[r]
		if !rp.active {
			continue
		}
		if rp.Topology != nil {
			rp.Topology.Step(e.slot, rp)
			rp.countTopo = true
		}
		e.collect(rp)
		e.buildIndex()
		e.resolve(rp)
		e.feedActivity(rp)
		e.resetIndex()
		e.refreshDone(rp)
	}
}

// collect is the collect phase: one ActRange per maximal run of live
// nodes (a single call over every node while all are live) fills
// e.acts, and each run is folded into the hot state right after its
// call, while the actions are still cache-hot. Done and down nodes are
// recorded as Idle.
func (e *BatchEngine) collect(rp *replica) {
	e.bcasters = e.bcasters[:0]
	e.nListen, e.idles, e.bcasts, e.downs = 0, 0, 0, 0
	n, slot, bank := e.n, e.slot, rp.bank
	if rp.allLive() {
		bank.ActRange(slot, 0, n, e.acts)
		e.fold(0, n)
		return
	}
	state, kind := rp.state, e.kind
	var downs int64
	for u := 0; u < n; {
		if state[u] != nodeLive {
			if state[u] == nodeDown {
				downs++
			}
			kind[u] = Idle
			u++
			continue
		}
		lo := u
		for u < n && state[u] == nodeLive {
			u++
		}
		bank.ActRange(slot, lo, u, e.acts)
		e.fold(lo, u)
	}
	e.downs = downs
}

// fold copies the actions of live nodes [lo, hi) into the hot state,
// classifying each node: idles and broadcasts are counted, broadcasters
// appended to e.bcasters (the index phase's input) and listeners to
// e.listeners. The flat label table replaces Global's per-call guard
// with one validity compare; a label outside [0, C) falls back to
// Global for its loud panic, since an unchecked index would read a
// neighboring node's row. An invalid action kind panics here.
func (e *BatchEngine) fold(lo, hi int) {
	// Window every per-node slice to [lo, hi) with a common length so
	// the loop runs without bounds checks.
	acts := e.acts[lo:hi]
	kind := e.kind[lo:hi][:len(acts)]
	globalCh := e.globalCh[lo:hi][:len(acts)]
	listeners := e.listeners
	bcasters := e.bcasters[:cap(e.bcasters)]
	flat, fc := e.flat, e.flatC
	nl, nb := e.nListen, int64(len(e.bcasters))
	l0, b0 := nl, nb
	// The loop body is branch-free on the action kind: random kinds
	// would mispredict a switch on most nodes. Both id lists take every
	// node's id and only advance on a match; a broadcaster's or
	// listener's list position never exceeds its node id, so the writes
	// stay in bounds.
	for i := range acts {
		a := &acts[i]
		k := a.Kind
		v := lo + i
		if k-Idle > Broadcast-Idle {
			panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", v, k))
		}
		kind[i] = k
		bcasters[nb] = int32(v)
		listeners[nl] = int32(v)
		if k == Broadcast {
			nb++
		}
		if k == Listen {
			nl++
		}
		if uint(a.Ch) < uint(fc) {
			globalCh[i] = flat[v*fc+a.Ch]
		} else if k != Idle {
			globalCh[i] = e.assign.Global(v, a.Ch)
		}
	}
	e.bcasts += nb - b0
	e.idles += int64(hi-lo) - (nb - b0) - (nl - l0)
	e.bcasters = bcasters[:nb]
	e.nListen = nl
}

// buildIndex buckets this slot's broadcasters by global channel: the
// index phase. One pass threads each broadcaster into its channel's
// list; it costs O(broadcasters) and allocates nothing (all scratch is
// engine-owned and pre-sized).
func (e *BatchEngine) buildIndex() {
	// Hoist the index slices into locals: the touched append mutates
	// an engine field, so without these the compiler must assume
	// aliasing and reload every slice header per broadcaster.
	rowMin := e.rowMin
	stride := e.rowStride
	globalCh := e.globalCh
	chHead := e.chHead
	chCount := e.chCount
	bcastNext := e.bcastNext
	rowBuf := e.rowBuf
	rowOf := e.rowOf
	touched := e.touched
	for _, u := range e.bcasters {
		ch := globalCh[u]
		head := chHead[ch]
		if head < 0 {
			touched = append(touched, ch)
		}
		bcastNext[u] = head
		chHead[ch] = u
		cnt := chCount[ch] + 1
		chCount[ch] = cnt
		if cnt < rowMin {
			continue
		}
		// Dense channel: maintain its bitset row. The first broadcaster
		// to reach rowMin claims a row from the pool, clears it and
		// back-fills everyone threaded so far; later broadcasters set
		// their own bit.
		ri := rowOf[ch]
		if cnt == rowMin {
			ri = e.rowsUsed
			e.rowsUsed++
			rowOf[ch] = ri
			row := rowBuf[int(ri)*stride : (int(ri)+1)*stride]
			clear(row)
			for v := u; v >= 0; v = bcastNext[v] {
				row[v>>6] |= 1 << (uint(v) & 63)
			}
			continue
		}
		rowBuf[int(ri)*stride+int(u>>6)] |= 1 << (uint(u) & 63)
	}
	e.touched = touched
}

// resetIndex clears the per-slot channel index, touching only the
// channels that were active. Rows are cleared lazily on reassignment,
// so only the channel→row map needs resetting here.
func (e *BatchEngine) resetIndex() {
	for _, ch := range e.touched {
		e.chCount[ch] = 0
		e.chHead[ch] = -1
		e.rowOf[ch] = -1
	}
	e.touched = e.touched[:0]
	e.rowsUsed = 0
}

// resolve is the resolve/observe phase: it decides what each listener
// collect recorded hears, writing deliveries into e.deliv, and then
// hands every live node its outcome through one ObserveRange per
// maximal run of live nodes. The channel index is immutable during the
// phase and protocol state is node-private, so deferring the observes
// to the end cannot change any resolution.
//
// One loop resolves every replica. A jammer first drops the listeners
// on jammed channels, which hear silence whatever the broadcasters do;
// a dynamic replica checks the partition-loss counterfactual per
// listener behind one predictable branch; and traces fire from the
// delivery log after the loop, in ascending listener order and before
// the slot's observes.
//
// A listener on a channel with zero broadcasters resolves to silence
// in O(1); a dense channel with a bitset row resolves with one
// AND/popcount sweep of the listener's adjacency row; otherwise the
// shorter of the channel's broadcaster list and the listener's
// neighbor list is walked, stopping at the second talker.
//
// e.deliv holds From=-1 for every node outside this phase, so only
// actual deliveries are written — and only those entries are reset
// afterwards. Most node-slots hear nothing; paying one store per
// delivery instead of one per live node is a large share of the range
// path's speed.
func (e *BatchEngine) resolve(rp *replica) {
	g := rp.g
	nbr := rp.nbr
	dynamic := rp.dyn != nil
	slot := e.slot
	kind := e.kind
	globalCh := e.globalCh
	chCount := e.chCount
	chHead := e.chHead
	bcastNext := e.bcastNext
	rowOf := e.rowOf
	rowBuf := e.rowBuf
	stride := e.rowStride
	deliv := e.deliv
	delivIdx := e.delivIdx
	listeners := e.listeners[:e.nListen]
	var deliveries, collisions, jammedL, plosses int64
	if jam := rp.Jammer; jam != nil {
		// Compact the listener list in place, keeping ascending order.
		kept := listeners[:0]
		for _, l := range listeners {
			if jam.Jammed(slot, globalCh[l]) {
				jammedL++
				continue
			}
			kept = append(kept, l)
		}
		listeners = kept
	}
	for _, l := range listeners {
		u := int(l)
		ch := globalCh[u]
		cnt := chCount[ch]
		if cnt == 0 {
			continue
		}
		talkers := 0
		var from int32 = -1
		if ri := rowOf[ch]; ri >= 0 {
			row := rowBuf[int(ri)*stride : (int(ri)+1)*stride]
			c, sole := bitset.AndCountSole(nbr.Row(u), row)
			talkers = c
			from = int32(sole)
		} else if nbrs := g.Neighbors(u); int(cnt) <= len(nbrs) {
			for v := chHead[ch]; v >= 0; v = bcastNext[v] {
				if nbr.Get(u, int(v)) {
					talkers++
					if talkers > 1 {
						break
					}
					from = v
				}
			}
		} else {
			for _, v := range nbrs {
				if kind[v] == Broadcast && globalCh[v] == ch {
					talkers++
					if talkers > 1 {
						break
					}
					from = v
				}
			}
		}
		if dynamic && e.partitionLoss(nbr, u, ch, talkers, from) {
			plosses++
		}
		switch {
		case talkers == 1:
			delivIdx[deliveries] = int32(u)
			deliveries++
			deliv[u] = Delivery{From: NodeID(from)}
		case talkers > 1:
			collisions++
		}
	}
	if trace := rp.Trace; trace != nil {
		for _, u := range delivIdx[:deliveries] {
			trace(slot, NodeID(u), globalCh[u], deliv[u])
		}
	}
	n, bank := e.n, rp.bank
	if rp.allLive() {
		bank.ObserveRange(slot, 0, n, deliv)
	} else {
		state := rp.state
		for u := 0; u < n; {
			if state[u] != nodeLive {
				u++
				continue
			}
			lo := u
			for u < n && state[u] == nodeLive {
				u++
			}
			bank.ObserveRange(slot, lo, u, deliv)
		}
	}
	// Restore the From=-1 invariant on exactly the entries this slot
	// delivered into.
	for _, u := range delivIdx[:deliveries] {
		deliv[u] = Delivery{From: -1}
	}
	st := rp.stats
	st.Idles += e.idles
	st.Broadcasts += e.bcasts
	st.Listens += e.nListen
	st.Deliveries += deliveries
	st.Collisions += collisions
	st.JammedListens += jammedL
	st.DownSlots += e.downs
	st.PartitionLosses += plosses
}

// partitionLoss is a dynamic replica's partition-loss counterfactual
// for listener u on channel ch, given the current topology's
// resolution (talkers, from): would the base (static) topology have
// delivered a frame this listener-slot does not deliver? It resolves
// the same broadcaster set against base adjacency, stopping at the
// second talker. When the listener's current adjacency row (nbr)
// equals its base row, nothing incident to it has churned, both
// resolutions are identical by construction, and the check returns at
// once. A channel row is swept against the listener's base row.
func (e *BatchEngine) partitionLoss(nbr *bitset.Matrix, u int, ch int32, talkers int, from int32) bool {
	if bitset.EqualWords(nbr.Row(u), e.nbr.Row(u)) {
		return false
	}
	baseTalkers := 0
	var baseFrom int32 = -1
	if ri := e.rowOf[ch]; ri >= 0 {
		row := e.rowBuf[int(ri)*e.rowStride : (int(ri)+1)*e.rowStride]
		c, sole := bitset.AndCountSole(e.nbr.Row(u), row)
		baseTalkers, baseFrom = c, int32(sole)
	} else {
		for v := e.chHead[ch]; v >= 0; v = e.bcastNext[v] {
			if e.nbr.Get(u, int(v)) {
				baseTalkers++
				if baseTalkers > 1 {
					break
				}
				baseFrom = v
			}
		}
	}
	return baseTalkers == 1 && (talkers != 1 || from != baseFrom)
}

// feedActivity reports the slot's broadcast counts per global channel
// to the replica's reactive jammer, after the slot resolves and before
// the next slot's Jammed queries. The activity slice is zero outside
// the call: touched entries are filled from the channel index and
// cleared again afterwards, so the cost is O(active channels), not
// O(universe).
func (e *BatchEngine) feedActivity(rp *replica) {
	if rp.sink == nil {
		return
	}
	for _, ch := range e.touched {
		e.activity[ch] = int(e.chCount[ch])
	}
	rp.sink.ObserveActivity(e.slot, e.activity)
	for _, ch := range e.touched {
		e.activity[ch] = 0
	}
}

// refreshDone updates completion flags after a slot resolves. At this
// point e.slot is still the index of the slot just executed, so every
// live protocol has observed e.slot+1 slots; protocols that declared a
// FixedSchedule bound beyond that cannot be done yet and are skipped
// without the interface call — including the whole scan while the
// bound of every live protocol lies in the future.
func (e *BatchEngine) refreshDone(rp *replica) {
	observed := e.slot + 1
	if observed < rp.minDone {
		return
	}
	min := int64(-1)
	for u, p := range rp.Protocols {
		if rp.state[u] == nodeDone {
			continue
		}
		if observed >= rp.doneAt[u] && p.Done() {
			rp.state[u] = nodeDone
			rp.nDone++
			continue
		}
		if min < 0 || rp.doneAt[u] < min {
			min = rp.doneAt[u]
		}
	}
	rp.minDone = min
}
