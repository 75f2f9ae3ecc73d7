package crn

import (
	"context"
	"fmt"

	"crn/internal/bitset"
	"crn/internal/core"
	"crn/internal/dynamics"
	"crn/internal/radio"
	"crn/internal/rng"
)

// Primitive is a runnable communication primitive: one of the paper's
// algorithms (or a baseline), packaged so every entry point — the CLI,
// the experiment harness, the sweep engine — runs it the same way and
// receives the same Result envelope.
//
// Run executes the primitive once over the scenario with the given
// seed. It honors ctx: the engines poll for cancellation every 16
// sub-microsecond slots, so even slot-budgets in the millions stop
// within microseconds. Run is safe for concurrent use with distinct
// seeds over a shared Scenario.
type Primitive interface {
	// Name identifies the primitive ("cseek", "ckseek", "cgcast", ...).
	Name() string
	// Run executes one simulation and reports the common Result.
	Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error)
}

// Discovery returns the neighbor-discovery primitive: every node
// learns the identities of all its neighbors. The empty Algorithm
// selects CSeek.
func Discovery(algo Algorithm) Primitive { return discoveryPrimitive{algo: algo} }

type discoveryPrimitive struct{ algo Algorithm }

func (p discoveryPrimitive) Name() string {
	if p.algo == "" {
		return string(CSeek)
	}
	return string(p.algo)
}

func (p discoveryPrimitive) mk(s *Scenario) runBuilder {
	switch p.algo {
	case CSeek, "":
		return func(master *rng.Source) ([]core.Discoverer, *core.SeekBank, error) {
			return discoverers(core.NewSeekRun(s.p, s.g.N(), master, 0))
		}
	case Naive:
		return eachNode(s, func(env core.Env) (core.Discoverer, error) { return core.NewNaiveSeek(s.p, env) })
	case Uniform:
		return eachNode(s, func(env core.Env) (core.Discoverer, error) { return core.NewUniformSeek(s.p, env) })
	}
	return func(*rng.Source) ([]core.Discoverer, *core.SeekBank, error) {
		return nil, nil, fmt.Errorf("crn: unknown algorithm %q", p.algo)
	}
}

func (p discoveryPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	return runDiscovery(ctx, s, p.Name(), p.mk(s), nil, seed)
}

// RunBatch implements batchRunner: the sweep engine fuses several
// same-scenario runs into one radio.BatchEngine pass.
func (p discoveryPrimitive) RunBatch(ctx context.Context, s *Scenario, seeds []uint64) ([]*Result, error) {
	return runDiscoveryBatch(ctx, s, p.Name(), p.mk(s), nil, seeds)
}

// runBuilder builds the discoverers of one run, node u drawing from
// master.Split(u), and the bank that holds their storage when they are
// a CSEEK/CKSEEK run (nil for the baselines).
type runBuilder func(master *rng.Source) ([]core.Discoverer, *core.SeekBank, error)

// discoverers adapts a CSEEK/CKSEEK run, built in one pass and banked,
// to the Discoverer slice a run holds.
func discoverers(bank *core.SeekBank, err error) ([]core.Discoverer, *core.SeekBank, error) {
	if err != nil {
		return nil, nil, err
	}
	ds := make([]core.Discoverer, len(bank.Nodes()))
	for u, sk := range bank.Nodes() {
		ds[u] = sk
	}
	return ds, bank, nil
}

// eachNode builds a baseline's run one node at a time; baselines stay
// on per-node dispatch.
func eachNode(s *Scenario, mk func(core.Env) (core.Discoverer, error)) runBuilder {
	return func(master *rng.Source) ([]core.Discoverer, *core.SeekBank, error) {
		ds := make([]core.Discoverer, s.g.N())
		for u := range ds {
			d, err := mk(core.Env{ID: radio.NodeID(u), C: s.p.C, Rand: master.Split(uint64(u))})
			if err != nil {
				return nil, nil, err
			}
			ds[u] = d
		}
		return ds, nil, nil
	}
}

// KDiscovery returns the k̂-neighbor-discovery primitive (CKSEEK,
// Theorem 6): every node finds (at least) all neighbors sharing at
// least khat channels with it. The result counts only those "good"
// pairs, and the run completes when every good pair is found.
func KDiscovery(khat int) Primitive { return kDiscoveryPrimitive{khat: khat} }

type kDiscoveryPrimitive struct{ khat int }

func (p kDiscoveryPrimitive) Name() string { return "ckseek" }

// khatTargets computes the per-node "good pair" target lists
// (neighbors sharing at least k̂ channels, ascending, as views of one
// array) and the realized Δ_k̂ bound CKSEEK's schedule is sized from.
func (p kDiscoveryPrimitive) khatTargets(s *Scenario) ([][]int32, int, error) {
	if p.khat < s.p.K || p.khat > s.p.KMax {
		return nil, 0, fmt.Errorf("crn: k̂ must be in [k,kmax] = [%d,%d], got %d", s.p.K, s.p.KMax, p.khat)
	}
	n := s.g.N()
	degrees := 0
	for u := 0; u < n; u++ {
		degrees += s.g.Degree(u)
	}
	flat := make([]int32, 0, degrees)
	targets := make([][]int32, n)
	deltaKhat := 0
	for u := 0; u < n; u++ {
		lo := len(flat)
		for _, v := range s.g.Neighbors(u) {
			if s.a.SharedCount(u, int(v)) >= p.khat {
				flat = append(flat, v)
			}
		}
		targets[u] = flat[lo:len(flat):len(flat)]
		deltaKhat = max(deltaKhat, len(targets[u]))
	}
	return targets, deltaKhat, nil
}

// mk builds CKSEEK runs sized for Δ_k̂.
func (p kDiscoveryPrimitive) mk(s *Scenario, deltaKhat int) runBuilder {
	return func(master *rng.Source) ([]core.Discoverer, *core.SeekBank, error) {
		return discoverers(core.NewCKSeekRun(s.p, s.g.N(), p.khat, deltaKhat, master, 0))
	}
}

func (p kDiscoveryPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	targets, deltaKhat, err := p.khatTargets(s)
	if err != nil {
		return nil, err
	}
	return runDiscovery(ctx, s, p.Name(), p.mk(s, deltaKhat), targets, seed)
}

// RunBatch implements batchRunner, computing the target lists once for
// the whole batch.
func (p kDiscoveryPrimitive) RunBatch(ctx context.Context, s *Scenario, seeds []uint64) ([]*Result, error) {
	targets, deltaKhat, err := p.khatTargets(s)
	if err != nil {
		return nil, err
	}
	return runDiscoveryBatch(ctx, s, p.Name(), p.mk(s, deltaKhat), targets, seeds)
}

// discoveryRun is one prepared discovery run: protocols built, network
// resolved, goal-predicate state initialized — one replica of the
// BatchEngine pass runDiscoveryBatch makes.
type discoveryRun struct {
	s       *Scenario
	name    string
	targets [][]int32

	ds     []core.Discoverer
	protos []radio.Protocol
	nw     *radio.Network
	// bank holds the discoverers' storage on a CSEEK/CKSEEK run; finish
	// copies what the Result needs out of it, and release hands it back.
	bank *core.SeekBank

	rediscovered       int64
	rediscoveryLatency int64

	completedAt int64
	unsat       int
}

// prepareDiscovery builds one run: the discoverers, seeded from the run
// seed, the run-scoped network, and — under a dynamic topology with a
// join log — the delivery-trace tap for re-discovery accounting.
func prepareDiscovery(s *Scenario, name string, build runBuilder, targets [][]int32, seed uint64) (*discoveryRun, error) {
	ds, bank, err := build(rng.New(seed))
	if err != nil {
		return nil, err
	}
	n := len(ds)
	dr := &discoveryRun{
		s:           s,
		name:        name,
		targets:     targets,
		ds:          ds,
		protos:      make([]radio.Protocol, n),
		bank:        bank,
		completedAt: -1,
	}
	for u, d := range ds {
		dr.protos[u] = d
	}
	dr.nw = s.runNetwork()
	// Re-discovery accounting under a dynamic topology: protocols
	// record observations on their local clocks (frozen while down),
	// but re-discovery latency is measured on the engine clock, so tap
	// the engine's delivery trace and settle each pair the first engine
	// slot it is heard in. The feed applies slot s's joins before slot s
	// resolves, so the model's LastJoin at tap time is exactly the
	// latest join at or before the hearing slot — the accounting is
	// online and needs no post-run join history. A replica's trace
	// fires in slot order on the engine's goroutine, so it is ordered
	// and race-free. Feeds
	// without a join log (pure mobility/flapping) have nothing to
	// measure against — skip the tap and its per-delivery cost.
	if joinLog, ok := dr.nw.Topology.(dynamics.JoinLog); ok {
		heard := bitset.NewMatrix(n, n)
		prev := dr.nw.Trace
		dr.nw.Trace = func(slot int64, listener radio.NodeID, ch int32, d radio.Delivery) {
			if !heard.Get(int(listener), int(d.From)) {
				heard.Set(int(listener), int(d.From))
				// A pair is re-discovered when the neighbor had already
				// gone down and rejoined by the time it was first heard;
				// the latency runs from its latest rejoin.
				if j := joinLog.LastJoin(int(d.From)); j >= 0 {
					dr.rediscovered++
					dr.rediscoveryLatency += slot - j
				}
			}
			if prev != nil {
				prev(slot, listener, ch, d)
			}
		}
	}
	return dr, nil
}

// maxSlots is the run's slot budget: the schedule length plus one so
// the final slot's stop check still runs inside the engine loop.
func (dr *discoveryRun) maxSlots() int64 { return dr.ds[0].TotalSlots() + 1 }

func (dr *discoveryRun) satisfied(u int) bool {
	d := dr.ds[u]
	if dr.targets == nil {
		return d.DiscoveredCount() >= dr.s.g.Degree(u)
	}
	want := dr.targets[u]
	if d.DiscoveredCount() < len(want) {
		return false
	}
	ids, _ := d.Heard()
	return countShared(want, ids) == len(want)
}

// countShared counts the identities in both ascending lists with one
// merge walk.
func countShared(want []int32, ids []radio.NodeID) int {
	shared, i := 0, 0
	for _, v := range want {
		for i < len(ids) && ids[i] < radio.NodeID(v) {
			i++
		}
		if i == len(ids) {
			break
		}
		if ids[i] == radio.NodeID(v) {
			shared++
			i++
		}
	}
	return shared
}

// stop is the engine stop predicate. Discovery is monotone (a found
// neighbor stays found), so it keeps a cursor at the first unsatisfied
// node: most slots cost one node's check instead of n, and the whole
// sweep over nodes is paid once per run, not once per slot.
func (dr *discoveryRun) stop(slot int64) bool {
	n := len(dr.ds)
	for ; dr.unsat < n; dr.unsat++ {
		if !dr.satisfied(dr.unsat) {
			return false
		}
	}
	dr.completedAt = slot
	return true
}

// finish assembles the Result envelope from the run's end state and
// the engine's stats. Node u's Neighbors and FirstHeard are views into
// two arrays sized to the identities heard, filled straight from its
// sorted table (nil when it heard nobody), and its pairs are counted
// with one merge walk against its sorted neighbors or targets.
func (dr *discoveryRun) finish(st radio.Stats) *Result {
	s, n := dr.s, len(dr.ds)
	heard := 0
	for _, d := range dr.ds {
		heard += d.DiscoveredCount()
	}
	neighbors, firstHeard := make([]int, heard), make([]int64, heard)
	det := &DiscoveryDetail{
		Algorithm:  dr.name,
		Neighbors:  make([][]int, n),
		FirstHeard: make([][]int64, n),
	}
	lo := 0
	for u, d := range dr.ds {
		ids, slots := d.Heard()
		if hi := lo + len(ids); hi > lo {
			det.Neighbors[u], det.FirstHeard[u] = neighbors[lo:hi:hi], firstHeard[lo:hi:hi]
			for i, id := range ids {
				det.Neighbors[u][i] = int(id)
			}
			copy(det.FirstHeard[u], slots)
			lo = hi
		}
		want := s.g.Neighbors(u)
		if dr.targets != nil {
			want = dr.targets[u]
		}
		det.PairsTotal += len(want)
		det.PairsDiscovered += countShared(want, ids)
	}
	res := &Result{
		Primitive:       dr.name,
		ScheduleSlots:   dr.ds[0].TotalSlots(),
		CompletedAtSlot: dr.completedAt,
		Completed:       dr.completedAt >= 0,
		Discovery:       det,
		Spectrum:        spectrumDetail(st),
	}
	if dr.nw.Topology != nil {
		top := topologyDetail(st)
		top.RediscoveredPairs = int(dr.rediscovered)
		top.RediscoveryLatencyTotal = dr.rediscoveryLatency
		res.Topology = top
	}
	return res
}

// release hands the run's CSEEK storage back once finish has copied
// its outcome into the Result; the run must not be used again.
func (dr *discoveryRun) release() {
	if dr.bank != nil {
		dr.bank.Release()
	}
}

// runDiscovery drives one discovery protocol instance per node until
// the goal predicate holds or the schedule ends: runDiscoveryBatch with
// a single seed. When targets is nil the goal is "every node knows all
// its graph neighbors" and pairs are counted against the full neighbor
// universe; otherwise targets[u] lists, in ascending order, the
// identities node u must find, and pairs are counted against it.
func runDiscovery(ctx context.Context, s *Scenario, name string, build runBuilder, targets [][]int32, seed uint64) (*Result, error) {
	res, err := runDiscoveryBatch(ctx, s, name, build, targets, []uint64{seed})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runDiscoveryBatch executes one discovery run per seed over the same
// scenario through a single radio.BatchEngine pass: the graph,
// assignment and engine scratch are shared across the batch, and every
// run's outcome is byte-identical to running its seed alone (the batch
// engine's replica-isolation guarantee).
//
// Dynamic topologies batch too: prepareDiscovery installs a fresh
// run-scoped TopologyFeed per run (Scenario.runNetwork), and the batch
// engine gives each such replica a private mutable graph clone.
//
// The engine's scratch and each run's CSEEK storage go back to their
// pools once every Result is built; the Results share nothing with
// them.
func runDiscoveryBatch(ctx context.Context, s *Scenario, name string, build runBuilder, targets [][]int32, seeds []uint64) ([]*Result, error) {
	drs := make([]*discoveryRun, len(seeds))
	reps := make([]radio.Replica, len(seeds))
	for i, seed := range seeds {
		dr, err := prepareDiscovery(s, name, build, targets, seed)
		if err != nil {
			return nil, err
		}
		drs[i] = dr
		reps[i] = radio.Replica{Protocols: dr.protos, Jammer: dr.nw.Jammer, Trace: dr.nw.Trace, Topology: dr.nw.Topology}
	}
	be, err := radio.NewBatchEngine(s.g, s.a, reps)
	if err != nil {
		return nil, err
	}
	defer be.Release()
	sts, err := be.RunCtx(ctx, drs[0].maxSlots(), func(r int, slot int64) bool {
		return drs[r].stop(slot)
	})
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(seeds))
	for i, dr := range drs {
		results[i] = dr.finish(sts[i])
		dr.release()
	}
	return results, nil
}

// topologyDetail maps engine counters into the Result envelope's
// topology-dynamics block.
func topologyDetail(st radio.Stats) *TopologyDetail {
	return &TopologyDetail{
		EdgeAdds:        st.EdgeAdds,
		EdgeRemoves:     st.EdgeRemoves,
		NodeJoins:       st.NodeJoins,
		NodeLeaves:      st.NodeLeaves,
		DownNodeSlots:   st.DownSlots,
		PartitionLosses: st.PartitionLosses,
	}
}

// spectrumDetail maps engine counters into the Result envelope's
// spectrum accounting block.
func spectrumDetail(st radio.Stats) *SpectrumDetail {
	return &SpectrumDetail{
		Listens:       st.Listens,
		Deliveries:    st.Deliveries,
		Collisions:    st.Collisions,
		JammedListens: st.JammedListens,
	}
}

// BroadcastOption configures the GlobalBroadcast primitive and
// broadcast sessions.
type BroadcastOption func(*broadcastOptions)

type broadcastOptions struct {
	mode core.BroadcastMode
}

// WithFullFidelity makes CGCAST simulate every CSEEK exchange in the
// radio model instead of using the slot-equivalent oracle. Slower, but
// end-to-end faithful; see DESIGN.md.
func WithFullFidelity() BroadcastOption {
	return func(o *broadcastOptions) { o.mode = core.ExchangeFull }
}

func resolveBroadcastOptions(opts []BroadcastOption) broadcastOptions {
	o := broadcastOptions{mode: core.ExchangeAbstract}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// GlobalBroadcast returns the CGCAST global-broadcast primitive
// (Theorem 9): the full setup pipeline (discovery, dedicated-channel
// fixing, edge coloring, announcement) followed by one dissemination
// of message from the source node. message names what is broadcast:
// the model tracks which nodes hold it, not its content, so it changes
// no result.
func GlobalBroadcast(source int, message any, opts ...BroadcastOption) Primitive {
	return globalBroadcastPrimitive{source: source, opts: resolveBroadcastOptions(opts)}
}

type globalBroadcastPrimitive struct {
	source int
	opts   broadcastOptions
}

func (p globalBroadcastPrimitive) Name() string { return "cgcast" }

func (p globalBroadcastPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	nw := s.runNetwork()
	res, err := core.RunCGCastCtx(ctx, nw, core.BroadcastConfig{
		Params: s.p,
		D:      s.d,
		Source: radio.NodeID(p.source),
		Mode:   p.opts.mode,
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Primitive:       p.Name(),
		ScheduleSlots:   res.TotalSlots,
		CompletedAtSlot: res.AllInformedAt,
		Completed:       res.AllInformed,
		Broadcast: &BroadcastDetail{
			SetupSlots:          res.SetupSlots,
			DissemScheduleSlots: res.DissemScheduleSlots,
			AllInformed:         res.AllInformed,
			EdgesColored:        res.EdgesColored,
			EdgesDropped:        res.EdgesDropped,
			ColoringValid:       res.ColoringValid,
		},
		Spectrum: spectrumDetail(res.Radio),
	}
	if nw.Topology != nil {
		out.Topology = topologyDetail(res.Radio)
	}
	return out, nil
}

// Flooding returns the naive flooding broadcast baseline: informed
// nodes hop channels at random and broadcast with a back-off coin,
// paying a fresh rendezvous for every hop. message names what is
// broadcast: the model tracks which nodes hold it, not its content, so
// it changes no result.
func Flooding(source int, message any) Primitive {
	return floodingPrimitive{source: source}
}

type floodingPrimitive struct {
	source int
}

func (p floodingPrimitive) Name() string { return "flood" }

func (p floodingPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	nw := s.runNetwork()
	res, err := core.RunFloodCtx(ctx, nw, s.p, s.d, radio.NodeID(p.source), seed)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Primitive:       p.Name(),
		ScheduleSlots:   res.ScheduleSlots,
		CompletedAtSlot: res.AllInformedAt,
		Completed:       res.AllInformed,
		Broadcast: &BroadcastDetail{
			DissemScheduleSlots: res.ScheduleSlots,
			AllInformed:         res.AllInformed,
		},
		Spectrum: spectrumDetail(res.Radio),
	}
	if nw.Topology != nil {
		out.Topology = topologyDetail(res.Radio)
	}
	return out, nil
}
