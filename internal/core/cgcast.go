package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"crn/internal/bitset"
	"crn/internal/coloring"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// CGCAST (Section 5) solves global broadcast in
// O~((c²/k) + (kmax/k)·Δ + D·Δ) slots, w.h.p. The pipeline:
//
//  1. Run CSEEK so every node learns its neighbors, recording for every
//     slot which channel the node was tuned to.
//  2. Run CSEEK again, attaching to each frame the map of first-heard
//     slots from stage 1. Each edge's endpoints then agree on a
//     dedicated communication channel: the channel they used in slot
//     min(t_uv, t_vu) of stage 1 — computable on both sides from local
//     logs despite the absence of global channel labels (Section 5.2).
//  3. Edge-color the network with 2Δ colors by running the Luby-style
//     node coloring on the line graph. Each edge (u,v) is simulated by
//     the endpoint with the smaller identifier; every coloring step
//     exchanges proposals/decisions among virtual-node neighbors, which
//     are at most two hops apart, via two CSEEK executions (the second
//     relays what the first delivered).
//  4. Run CSEEK once more so each simulator announces the final edge
//     color to the other endpoint.
//  5. Disseminate: D phases × 2Δ steps; step s is dedicated to color s.
//     A node whose color-s edge exists goes to that edge's dedicated
//     channel; if it knows the message it back-off-broadcasts for
//     Θ(lg n) rounds of lg Δ slots, otherwise it listens. The message
//     crosses at least one hop per phase, w.h.p. (Theorem 9).
//
// Stages 1–4 are pure message exchange. BroadcastConfig.Mode selects
// their fidelity: ExchangeFull simulates every CSEEK slot in the radio
// model; ExchangeAbstract lets every neighbor hear every exchange
// through an oracle while charging the identical slot budget. Both
// decode the exchanges through one path, from who heard whom (see
// DESIGN.md, "Exchange fidelity"). Stage 5 always runs in the radio
// model.

// BroadcastMode selects the exchange fidelity of CGCAST stages 1–4.
type BroadcastMode int

// Exchange fidelity modes.
const (
	// ExchangeFull runs every CSEEK exchange in the radio model.
	ExchangeFull BroadcastMode = iota + 1
	// ExchangeAbstract lets every neighbor hear every exchange through
	// an oracle at the same slot cost; discovery metadata (neighbor
	// sets, dedicated channels) is synthesized from ground truth.
	ExchangeAbstract
)

// BroadcastConfig configures one CGCAST run.
type BroadcastConfig struct {
	// Params are the model parameters (normalized by RunCGCast).
	Params Params
	// D is the network diameter, which the paper assumes known for the
	// dissemination schedule.
	D int
	// Source is the node holding the message.
	Source radio.NodeID
	// Mode selects exchange fidelity; zero value means ExchangeAbstract.
	Mode BroadcastMode
	// Seed drives all protocol randomness.
	Seed uint64
}

// BroadcastResult reports the outcome and slot accounting of a run.
type BroadcastResult struct {
	// TotalSlots is the full charged cost: stages 1–4 plus the complete
	// dissemination schedule.
	TotalSlots int64
	// SetupSlots is the cost of stages 1–4 (discovery, exchange,
	// coloring, announce).
	SetupSlots int64
	// DissemScheduleSlots is the fixed length of stage 5.
	DissemScheduleSlots int64
	// AllInformedAt is the slot within stage 5 after which every node
	// held the message, or -1 if some node finished uninformed.
	AllInformedAt int64
	// AllInformed reports whether every node held the message.
	AllInformed bool
	// Informed[u] reports whether node u held the message at the end.
	Informed []bool
	// ColoringPhases is the number of coloring phases executed.
	ColoringPhases int
	// EdgesColored counts edges that obtained a color at both
	// endpoints.
	EdgesColored int
	// EdgesDropped counts graph edges that failed discovery, exchange,
	// or coloring and were left out of the dissemination schedule.
	EdgesDropped int
	// ColoringValid reports whether the realized edge coloring is
	// proper on the colored subgraph.
	ColoringValid bool
	// Radio accumulates engine counters over the stages that ran in the
	// radio model: dissemination always, plus the setup exchanges in
	// ExchangeFull mode. Spectrum accounting (jammed listener-slots)
	// lives here. Radio.Completed reports whether every such engine run
	// finished its schedule (stage failures surface as errors before a
	// result exists, so it is true on any returned result).
	Radio radio.Stats
}

// RunCGCast executes one CGCAST broadcast over the given network:
// the full setup pipeline (stages 1–4) followed by one dissemination.
// To amortize the setup over many broadcasts, use PrepareCGCast and
// BroadcastSession.Disseminate instead.
func RunCGCast(nw *radio.Network, cfg BroadcastConfig) (*BroadcastResult, error) {
	return RunCGCastCtx(context.Background(), nw, cfg)
}

// RunCGCastCtx is RunCGCast with cooperative cancellation: ctx is
// checked between pipeline stages and polled throughout each one, so
// a long setup or dissemination stops early when ctx is cancelled.
func RunCGCastCtx(ctx context.Context, nw *radio.Network, cfg BroadcastConfig) (*BroadcastResult, error) {
	session, err := PrepareCGCastCtx(ctx, nw, SessionConfig{
		Params: cfg.Params,
		Mode:   cfg.Mode,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer session.release()
	dres, err := session.DisseminateCtx(ctx, cfg.D, cfg.Source, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	res := &BroadcastResult{
		SetupSlots:          session.SetupSlots(),
		DissemScheduleSlots: dres.ScheduleSlots,
		TotalSlots:          session.SetupSlots() + dres.ScheduleSlots,
		AllInformedAt:       dres.AllInformedAt,
		AllInformed:         dres.AllInformed,
		Informed:            dres.Informed,
		ColoringPhases:      session.phases,
		Radio:               session.setupRadio,
	}
	res.Radio.Accumulate(dres.Radio)
	// Every contributing engine run completed or we would have errored
	// out above; Accumulate leaves Completed alone, so set it from the
	// dissemination run.
	res.Radio.Completed = dres.Radio.Completed
	session.fillColoringStats(res)
	return res, nil
}

// SessionConfig configures the reusable setup of CGCAST (stages 1–4).
type SessionConfig struct {
	// Params are the model parameters (normalized by PrepareCGCast).
	Params Params
	// Mode selects exchange fidelity; zero value means ExchangeAbstract.
	Mode BroadcastMode
	// Seed drives the setup randomness.
	Seed uint64
}

// BroadcastSession is the product of CGCAST's setup: discovered
// neighbors, per-edge dedicated channels, and a proper 2Δ edge
// coloring. The session can disseminate any number of messages from
// any sources, each costing only the O~(D·Δ) dissemination schedule —
// this is where CGCAST's one-time setup amortizes.
type BroadcastSession struct {
	nw         *radio.Network
	p          Params
	n          int
	setupSlots int64
	setupRadio radio.Stats
	phases     int
	// colored counts the edges colored at both endpoints; valid
	// reports whether their coloring is proper.
	colored int
	valid   bool
	// schedule is the n×2Δ table whose row u maps color -> u's local
	// dedicated channel (-1 when none), precomputed once: every
	// dissemination reuses it read-only. scheduleBuf is the
	// schedulePool entry it came from.
	schedule    []int32
	scheduleBuf *[]int32
}

// PrepareCGCast runs CGCAST stages 1–4 (discovery, dedicated-channel
// fixing, edge coloring, color announcement) and returns the reusable
// session.
func PrepareCGCast(nw *radio.Network, cfg SessionConfig) (*BroadcastSession, error) {
	return PrepareCGCastCtx(context.Background(), nw, cfg)
}

// PrepareCGCastCtx is PrepareCGCast with cooperative cancellation: ctx
// is checked between coloring phases and polled throughout each one.
func PrepareCGCastCtx(ctx context.Context, nw *radio.Network, cfg SessionConfig) (*BroadcastSession, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = ExchangeAbstract
	}
	if ctx == nil {
		ctx = context.Background()
	}
	seek, err := cseekSchedule(&p)
	if err != nil {
		return nil, err
	}
	d := setupPool.Get().(*cgcastDriver)
	defer d.release()
	d.ctx, d.nw, d.p, d.mode, d.n, d.seek = ctx, nw, p, mode, nw.Graph.N(), seek
	d.master.Reseed(cfg.Seed)
	return d.prepare()
}

// setupPool holds setup state between setups. A setup's tables are
// garbage once its session is built, so the next setup reuses them
// where they are large enough: a sweep of CGCAST runs allocates its
// per-edge state about once per worker instead of once per run.
var setupPool = sync.Pool{New: func() any { return new(cgcastDriver) }}

// release returns d to setupPool reset to its zero value but for its
// tables, and those hold no reference into the network.
func (d *cgcastDriver) release() {
	clear(d.neighbors)
	*d = cgcastDriver{tables: d.tables}
	setupPool.Put(d)
}

// reuse returns s resized to n zero elements, allocating only when its
// capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetupSlots returns the slot cost of stages 1–4.
func (s *BroadcastSession) SetupSlots() int64 { return s.setupSlots }

// ColoringPhases returns the number of coloring phases executed.
func (s *BroadcastSession) ColoringPhases() int { return s.phases }

// EdgesColored returns the number of graph edges with a color at both
// endpoints.
func (s *BroadcastSession) EdgesColored() int { return s.colored }

// DissemResult reports one dissemination over a prepared session, or
// one flooding run (RunFloodCtx).
type DissemResult struct {
	// ScheduleSlots is the schedule length: D·2Δ·rounds·lgΔ for a
	// dissemination, the slot budget for flooding.
	ScheduleSlots int64
	// AllInformedAt is the slot after which every node held the
	// message, or -1.
	AllInformedAt int64
	// AllInformed reports whether every node held the message.
	AllInformed bool
	// Informed[u] reports whether node u held the message at the end.
	Informed []bool
	// Radio holds the run's engine counters (deliveries, collisions,
	// jammed listener-slots).
	Radio radio.Stats
}

type cgcastDriver struct {
	ctx    context.Context
	nw     *radio.Network
	p      Params
	mode   BroadcastMode
	master rng.Source
	n      int

	// seek is the schedule of every CSEEK exchange; its length is the
	// canonical exchange cost, charged per exchange in both modes.
	seek *seekSchedule
	// rand is the coloring stream of the current (stage, simulator),
	// rewritten in place by nodeRand.
	rand rng.Source

	// edges is the graph's Edges(), sorted by (U, V): edge id
	// e is the position of edges[e].
	edges []graph.Edge
	// haveVis reports that vis holds this setup's static two-hop view
	// (abstract mode builds it once).
	haveVis bool

	setupSlots int64
	setupRadio radio.Stats // engine counters of full-mode exchanges
	stage      int         // monotone counter used for RNG stream separation

	tables
}

// tables is the per-node and per-edge storage of a setup, which the
// next setup reuses (see setupPool).
type tables struct {
	// inc[incStart[u]:incStart[u+1]] lists u's incident edge ids in
	// ascending neighbor order, aligned with neighbors[u] =
	// Graph.Neighbors(u); fill is scratch for building it.
	incStart  []int32
	inc       []int32
	fill      []int32
	neighbors [][]int32
	es        []edgeState

	// plates holds the color plate of every edge's virtual node: row e
	// is edge e's, 2Δ colors wide.
	plates bitset.Matrix

	// entry is the per-edge table every coloring exchange carries:
	// this phase's proposals in step one, its decisions in step two
	// (coloring.NoColor where there is none). vis is the view the last
	// two-hop exchange left: vis(u, s) reports whether u holds the
	// entries s simulates. scratch collects one edge's conflicts.
	entry   []int
	vis     bitset.Matrix
	scratch []int
}

// edgeState is the setup state of one graph edge (U, V).
type edgeState struct {
	// ch holds the local labels of the dedicated channel at U and at V.
	ch [2]int32
	// sim is the coloring state of the edge's virtual node, simulated
	// by U, the smaller endpoint; its color is the edge's final color.
	// Its plate is row e of the setup's plates.
	sim coloring.NodeState
	// live reports that the edge is established at both endpoints; it
	// is cleared when the edge fails discovery, exchange or coloring.
	live bool
}

func (d *cgcastDriver) prepare() (*BroadcastSession, error) {
	d.indexEdges()
	if err := d.establishEdges(); err != nil {
		return nil, err
	}
	phases := scaledSteps(d.p.Tuning.ColoringPhases, 1, d.p.LgN())
	if err := d.colorEdges(phases); err != nil {
		return nil, err
	}
	if err := d.announceColors(); err != nil {
		return nil, err
	}
	s := &BroadcastSession{
		nw:         d.nw,
		p:          d.p,
		n:          d.n,
		setupSlots: d.setupSlots,
		setupRadio: d.setupRadio,
		phases:     phases,
	}
	d.buildSchedules(s)
	return s, nil
}

// indexEdges numbers the edges and builds the incident-edge lists.
// Graph.Edges() is sorted by (U, V), so appending each edge at both
// endpoints in id order leaves every list in ascending neighbor order.
func (d *cgcastDriver) indexEdges() {
	g := d.nw.Graph
	d.edges = g.Edges()
	d.incStart = reuse(d.incStart, d.n+1)
	d.neighbors = reuse(d.neighbors, d.n)
	for u := range d.neighbors {
		d.neighbors[u] = g.Neighbors(u)
		d.incStart[u+1] = d.incStart[u] + int32(len(d.neighbors[u]))
	}
	d.inc = reuse(d.inc, 2*len(d.edges))
	d.fill = append(d.fill[:0], d.incStart[:d.n]...)
	for e, ed := range d.edges {
		d.inc[d.fill[ed.U]] = int32(e)
		d.fill[ed.U]++
		d.inc[d.fill[ed.V]] = int32(e)
		d.fill[ed.V]++
	}
	d.es = reuse(d.es, len(d.edges))
	d.entry = reuse(d.entry, len(d.edges))
	// An edge has at most 2Δ-2 adjacent edges.
	d.scratch = reuse(d.scratch, 2*d.p.Delta)[:0]
}

// buildSchedules derives each node's color -> dedicated-channel map
// from the live edges, and tallies them. The session's whole point is
// many disseminations per setup, so this is computed once, not per
// message. Writing in edge-id order visits each node's edges in
// ascending neighbor order; a color already taken at a node makes the
// coloring improper.
func (d *cgcastDriver) buildSchedules(s *BroadcastSession) {
	numColors := 2 * d.p.Delta
	s.scheduleBuf = schedulePool.Get().(*[]int32)
	s.schedule = reuse(*s.scheduleBuf, d.n*numColors)
	for i := range s.schedule {
		s.schedule[i] = -1
	}
	s.valid = true
	for e, ed := range d.edges {
		st := &d.es[e]
		if !st.live {
			continue
		}
		s.colored++
		c := st.sim.Color()
		for side, u := range [2]int32{ed.U, ed.V} {
			i := int(u)*numColors + c
			if s.schedule[i] >= 0 {
				s.valid = false
			}
			s.schedule[i] = st.ch[side]
		}
	}
}

// schedulePool recycles the schedule tables of the sessions RunCGCast
// discards once its one dissemination is done; a session from
// PrepareCGCast keeps its table.
var schedulePool = sync.Pool{New: func() any { return new([]int32) }}

// release returns the session's schedule table to schedulePool. The
// session must not disseminate again.
func (s *BroadcastSession) release() {
	*s.scheduleBuf = s.schedule[:0]
	schedulePool.Put(s.scheduleBuf)
	s.schedule, s.scheduleBuf = nil, nil
}

// nodeRand starts the fresh deterministic stream of (stage, node) in
// d.rand and returns it: the stream Split would return, without a new
// Source.
func (d *cgcastDriver) nodeRand(u int) *rng.Source {
	d.rand = d.master.SplitValue(uint64(d.stage)<<32 | uint64(u))
	return &d.rand
}

// nextStage advances the RNG stream domain separator.
func (d *cgcastDriver) nextStage() { d.stage++ }

// ----- Stages 1 & 2: discovery and dedicated-channel fixing -----

func (d *cgcastDriver) establishEdges() error {
	a := d.nw.Assign
	if d.mode == ExchangeAbstract {
		// Oracle: adjacency from ground truth; the dedicated channel is
		// the lowest-numbered shared global channel. Charge two CSEEK
		// executions (stages 1 and 2).
		for e, ed := range d.edges {
			u, v := int(ed.U), int(ed.V)
			g := int32(-1)
			for l := 0; l < a.C; l++ {
				if c := a.Global(u, l); a.Local(v, c) >= 0 && (g < 0 || c < g) {
					g = c
				}
			}
			if g >= 0 {
				d.es[e] = edgeState{ch: [2]int32{a.Local(u, g), a.Local(v, g)}, live: true}
			}
		}
		d.setupSlots += 2 * d.seek.total
		d.nextStage()
		d.nextStage()
		return nil
	}

	// Full mode, stage 1: CSEEK with channel logging. Stage 2: CSEEK
	// again, each frame standing for the sender's stage-1 first-heard
	// table.
	bank1, err := d.runSeeks(true)
	if err != nil {
		return err
	}
	defer bank1.Release()
	d.nextStage()
	bank2, err := d.runSeeks(false)
	if err != nil {
		return err
	}
	defer bank2.Release()
	d.nextStage()
	stage1, stage2 := bank1.Nodes(), bank2.Nodes()

	// Fix dedicated channels: u establishes (u,v) iff it heard v in
	// stage 1 and received v's table naming u in stage 2 — that is, u
	// heard v in stage 2 and v heard u in stage 1, at the slot v's
	// stage-1 table holds, so the tables need not ride the frames. Both
	// endpoints use the channel they were tuned to in the earlier of
	// the two first-heard slots.
	for e, ed := range d.edges {
		u, v := ed.U, ed.V
		uv, okUV := stage1[u].FirstHeard(radio.NodeID(v))
		vu, okVU := stage1[v].FirstHeard(radio.NodeID(u))
		_, okUV2 := stage2[u].FirstHeard(radio.NodeID(v))
		_, okVU2 := stage2[v].FirstHeard(radio.NodeID(u))
		if !okUV || !okVU || !okUV2 || !okVU2 {
			continue
		}
		t := min(uv, vu)
		chU, okU := stage1[u].ChannelAt(t)
		chV, okV := stage1[v].ChannelAt(t)
		if okU && okV {
			d.es[e] = edgeState{ch: [2]int32{chU, chV}, live: true}
		}
	}
	return nil
}

// ----- Stage 3: line-graph coloring over exchange epochs -----

func (d *cgcastDriver) colorEdges(phases int) error {
	// Every plate starts full.
	d.plates.Reset(len(d.es), 2*d.p.Delta)
	d.plates.Fill()
	for e := range d.es {
		if d.es[e].live {
			d.es[e].sim = coloring.NewNodeState()
		}
	}
	for phase := 0; phase < phases; phase++ {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		// Step one: propose and exchange proposals two hops out. A
		// node's simulated edges are contiguous in id order and
		// ascending in V, so its stream draws over them in ascending
		// neighbor order; a node with no active edge starts no stream.
		var r *rng.Source
		owner := int32(-1)
		for e := range d.es {
			d.entry[e] = coloring.NoColor
			st := &d.es[e]
			if !st.live || !st.sim.Active() {
				continue
			}
			if u := d.edges[e].U; u != owner {
				r, owner = d.nodeRand(int(u)), u
			}
			d.entry[e] = st.sim.Propose(&d.plates, e, r)
		}
		d.nextStage()
		if err := d.exchangeTwoHop(); err != nil {
			return err
		}
		// Resolve every proposal against the adjacent proposals its
		// simulator saw, then keep only this phase's decisions.
		for e := range d.es {
			if d.entry[e] != coloring.NoColor {
				d.es[e].sim.ResolveConflicts(d.adjacentEntries(e))
			}
		}
		for e := range d.es {
			if d.entry[e] != coloring.NoColor && d.es[e].sim.Active() {
				d.entry[e] = coloring.NoColor
			}
		}
		// Step two: exchange decisions, strike colors from plates.
		if err := d.exchangeTwoHop(); err != nil {
			return err
		}
		for e := range d.es {
			if st := &d.es[e]; st.live && st.sim.Active() {
				st.sim.ObserveDecisions(&d.plates, e, d.adjacentEntries(e))
			}
		}
	}
	return nil
}

// adjacentEntries collects the table entries of the edges adjacent to
// e (sharing an endpoint) that e's simulator holds: its own, and those
// of every simulator in its view. The result aliases d.scratch.
func (d *cgcastDriver) adjacentEntries(e int) []int {
	sim := d.edges[e].U
	out := d.scratch[:0]
	for _, end := range [2]int32{d.edges[e].U, d.edges[e].V} {
		for _, f := range d.inc[d.incStart[end]:d.incStart[end+1]] {
			if int(f) == e || d.entry[f] == coloring.NoColor {
				continue
			}
			if s := d.edges[f].U; s == sim || d.vis.Get(int(sim), int(s)) {
				out = append(out, d.entry[f])
			}
		}
	}
	d.scratch = out
	return out
}

// exchangeTwoHop carries the entry table two hops out via two one-hop
// exchanges, the second relaying what the first delivered, and leaves
// in d.vis whose entries each node then holds: u holds s's iff u heard
// s in either exchange, or heard in the second some node that heard s
// in the first. In abstract mode every neighbor hears both, so the
// view is the static two-hop neighborhood, built once. Cost: two CSEEK
// executions.
func (d *cgcastDriver) exchangeTwoHop() error {
	first, err := d.exchange()
	if err != nil {
		return err
	}
	second, err := d.exchange()
	if err != nil {
		return err
	}
	if d.haveVis && d.mode == ExchangeAbstract {
		return nil
	}
	d.vis.Reset(d.n, d.n)
	d.haveVis = true
	for u, relays := range second {
		for _, s := range first[u] {
			d.vis.Set(u, int(s))
		}
		for _, x := range relays {
			d.vis.Set(u, int(x))
			for _, s := range first[x] {
				d.vis.Set(u, int(s))
			}
		}
	}
	return nil
}

// exchange performs one one-hop all-pairs exchange and returns who
// heard whom: heard[u] lists the nodes whose frame reached u. In full
// mode this is a CSEEK execution; in abstract mode an oracle at
// identical slot cost in which every neighbor hears. What a frame
// carries is a function of its sender's state, which the setup
// already holds, so who heard whom is all the decoding needs.
func (d *cgcastDriver) exchange() ([][]int32, error) {
	defer d.nextStage()
	if err := d.ctx.Err(); err != nil {
		return nil, err
	}
	if d.mode == ExchangeAbstract {
		d.setupSlots += d.seek.total
		return d.neighbors, nil
	}
	bank, err := d.runSeeks(false)
	if err != nil {
		return nil, err
	}
	defer bank.Release()
	heard := make([][]int32, d.n)
	for u, s := range bank.Nodes() {
		ids, _ := s.Heard()
		for _, v := range ids {
			heard[u] = append(heard[u], int32(v))
		}
	}
	return heard, nil
}

// runSeeks runs one full-schedule CSEEK execution, every node drawing
// from its stream of the current stage (nodeRand's), and charges its
// slots to setup. record enables the per-slot channel log stage 1
// needs. The caller releases the returned bank once it has read the
// machines.
func (d *cgcastDriver) runSeeks(record bool) (*SeekBank, error) {
	bank := newSeekRun(d.seek, d.n, &d.master, uint64(d.stage)<<32)
	protos := make([]radio.Protocol, d.n)
	for u, s := range bank.Nodes() {
		if record {
			s.RecordChannels()
		}
		protos[u] = s
	}
	e, err := radio.NewEngine(d.nw, protos)
	if err != nil {
		return nil, err
	}
	defer e.Release()
	st, err := e.RunUntilCtx(d.ctx, d.seek.total+1, nil)
	if err != nil {
		return nil, err
	}
	// A fixed-length schedule that fails to finish is an engine or
	// schedule bug in the static model — but under a dynamic topology
	// a down node legitimately freezes mid-schedule, so partial
	// exchanges are an expected degradation outcome there.
	if !st.Completed && d.nw.Topology == nil {
		return nil, fmt.Errorf("core: exchange stage did not complete in %d slots", d.seek.total)
	}
	d.setupRadio.Accumulate(st)
	d.setupSlots += d.seek.total
	return bank, nil
}

// ----- Stage 4: color announcement -----

// announceColors runs the announcement exchange: each simulator
// announces its edges' colors, and the other endpoint learns one iff
// it heard the simulator. An edge without a color at both endpoints is
// dropped.
func (d *cgcastDriver) announceColors() error {
	d.nextStage()
	heard, err := d.exchange()
	if err != nil {
		return err
	}
	for e, ed := range d.edges {
		st := &d.es[e]
		if st.live && (st.sim.Color() == coloring.NoColor || !slices.Contains(heard[ed.V], ed.U)) {
			st.live = false
		}
	}
	return nil
}

// ----- Stage 5: dissemination -----

// Disseminate runs one message dissemination from source over the
// prepared session: D phases of 2Δ color-steps, each step Θ(lg n)
// back-off rounds of lg Δ slots on the edge's dedicated channel.
func (s *BroadcastSession) Disseminate(dD int, source radio.NodeID, seed uint64) (*DissemResult, error) {
	return s.DisseminateCtx(context.Background(), dD, source, seed)
}

// DisseminateCtx is Disseminate with cooperative cancellation: ctx is
// polled throughout the dissemination run.
func (s *BroadcastSession) DisseminateCtx(ctx context.Context, dD int, source radio.NodeID, seed uint64) (*DissemResult, error) {
	if dD < 1 {
		return nil, fmt.Errorf("core: D must be >= 1, got %d", dD)
	}
	if int(source) < 0 || int(source) >= s.n {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	run := newDissemRun(s.p, s.schedule, dD, source, seed)
	defer run.release()
	e, err := radio.NewEngine(s.nw, run.protos)
	if err != nil {
		return nil, err
	}
	defer e.Release()

	allInformedAt := int64(-1)
	st, err := e.RunUntilCtx(ctx, run.total+1, func(slot int64) bool {
		if allInformedAt >= 0 {
			return false // keep running the schedule to full length
		}
		for u := range run.nodes {
			if !run.nodes[u].informed {
				return false
			}
		}
		allInformedAt = slot
		return false
	})
	if err != nil {
		return nil, err
	}
	// See runSeeks: incomplete fixed schedules are a bug in the
	// static model, a measured outcome under a dynamic topology (down
	// nodes freeze mid-schedule).
	if !st.Completed && s.nw.Topology == nil {
		return nil, fmt.Errorf("core: dissemination did not complete in %d slots", run.total)
	}

	res := &DissemResult{
		ScheduleSlots: run.total,
		AllInformedAt: allInformedAt,
		AllInformed:   true,
		Informed:      make([]bool, s.n),
		Radio:         st,
	}
	for u := range run.nodes {
		res.Informed[u] = run.nodes[u].informed
		if !run.nodes[u].informed {
			res.AllInformed = false
		}
	}
	return res, nil
}

func (s *BroadcastSession) fillColoringStats(res *BroadcastResult) {
	res.EdgesColored = s.colored
	res.EdgesDropped = s.nw.Graph.M() - s.colored
	res.ColoringValid = s.valid
}

// dissemRun is the stage-5 state of one dissemination: every node's
// machine in one slice, and what the machines share, held once. It is
// also their bank for range dispatch (see bank.go).
type dissemRun struct {
	nodes  []dissemProto
	protos []radio.Protocol // &nodes[u], the engine's protocol set
	// schedule is the session's n×colors table: row u maps color ->
	// u's local dedicated channel, -1 if none. Read-only.
	schedule []int32
	colors   int   // 2Δ: the steps of a phase, one per color
	perStep  int64 // slots per step: rounds back-off rounds of lg Δ slots
	total    int64 // phases·colors·perStep
	// coins[i] is the back-off coin of slot i of a round (backoffCoins).
	coins []rng.Coin
}

// dissemProto is the stage-5 machine of one node: D phases × 2Δ steps
// × rounds × lg Δ slots, with step s dedicated to edge color s. Each
// node keeps its own clock, because a down node's schedule freezes
// under churn.
type dissemProto struct {
	run         *dissemRun
	rand        rng.Source
	slot        int64
	u           int32 // the node's index: its schedule row and bank slot
	informed    bool
	wasInformed bool // informed state latched at the start of each step
}

var _ radio.Protocol = (*dissemProto)(nil)

// newDissemRun builds the machines of one dissemination in one pass:
// phases phases over schedule, an n×2Δ table (n = len(schedule)/2Δ),
// rounds and back-off coins from p, which must be normalized. Only
// source starts informed; node u draws from rng.New(seed).Split(u).
// The run's storage comes from dissemPool; release returns it.
func newDissemRun(p Params, schedule []int32, phases int, source radio.NodeID, seed uint64) *dissemRun {
	colors := 2 * p.Delta
	rounds := scaledSteps(p.Tuning.DissemRounds, 1, p.LgN())
	r := dissemPool.Get().(*dissemRun)
	n := len(schedule) / colors
	*r = dissemRun{
		nodes:    reuse(r.nodes, n),
		protos:   reuse(r.protos, n),
		schedule: schedule,
		colors:   colors,
		coins:    p.backoffCoins(),
	}
	r.perStep = int64(rounds) * int64(len(r.coins))
	r.total = int64(phases) * int64(colors) * r.perStep
	var master rng.Source
	master.Reseed(seed)
	for u := range r.nodes {
		r.nodes[u] = dissemProto{
			run:      r,
			rand:     master.SplitValue(uint64(u)),
			u:        int32(u),
			informed: radio.NodeID(u) == source,
		}
		r.protos[u] = &r.nodes[u]
	}
	return r
}

// dissemPool holds dissemination runs between disseminations, so a
// run's node machines reuse the storage of an earlier run.
var dissemPool = sync.Pool{New: func() any { return new(dissemRun) }}

// release returns r to dissemPool, keeping only its node storage; the
// machines must not be stepped again.
func (r *dissemRun) release() {
	*r = dissemRun{nodes: r.nodes[:0], protos: r.protos[:0]}
	dissemPool.Put(r)
}

// Act implements radio.Protocol.
func (dp *dissemProto) Act(_ int64) radio.Action {
	r := dp.run
	slotInStep := dp.slot % r.perStep
	if slotInStep == 0 {
		// Latch the informed state: a node that learns the message
		// mid-step starts forwarding at the next step, keeping the
		// per-step roles fixed as in the paper's analysis.
		dp.wasInformed = dp.informed
	}
	step := int(dp.slot / r.perStep % int64(r.colors))
	ch := r.schedule[int(dp.u)*r.colors+step]
	if ch < 0 {
		return radio.Action{Kind: radio.Idle}
	}
	if !dp.wasInformed {
		return radio.Action{Kind: radio.Listen, Ch: int(ch)}
	}
	// Back-off broadcast: slot i of the round broadcasts with
	// probability 2^i/2^lgΔ, sweeping contention levels.
	if dp.rand.Toss(r.coins[slotInStep%int64(len(r.coins))]) {
		return radio.Action{Kind: radio.Broadcast, Ch: int(ch)}
	}
	return radio.Action{Kind: radio.Idle, Ch: int(ch)}
}

// Observe implements radio.Protocol, for both dispatch modes (the
// dissemRun's ObserveRange calls it too). Only informed nodes
// broadcast, so hearing a frame informs the node.
func (dp *dissemProto) Observe(_ int64, d radio.Delivery) {
	if d.From >= 0 {
		dp.informed = true
	}
	dp.slot++
}

// Done implements radio.Protocol.
func (dp *dissemProto) Done() bool { return dp.slot >= dp.run.total }

// MinDoneSlots implements radio.FixedSchedule: the dissemination
// schedule is fixed-length, so the engine can skip Done polls until it
// ends.
func (dp *dissemProto) MinDoneSlots() int64 { return dp.run.total }
