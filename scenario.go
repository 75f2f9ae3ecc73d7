package crn

import (
	"fmt"

	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// Topology names a built-in network generator.
type Topology string

// Built-in topologies.
const (
	// GNP is an Erdős–Rényi G(n, 0.3) graph conditioned on connectivity.
	GNP Topology = "gnp"
	// Star is a star with node 0 at the center (Δ = n-1).
	Star Topology = "star"
	// Path is a path (D = n-1).
	Path Topology = "path"
	// Grid is a near-square grid.
	Grid Topology = "grid"
	// Chain is a chain of 4-cliques bridged in a line (both Δ and D).
	Chain Topology = "chain"
	// Tree is a complete tree with branching min{c,Δ}-1 (Theorem 14's
	// worst case).
	Tree Topology = "tree"
	// UnitDisk is a random geometric graph in the unit square.
	UnitDisk Topology = "unitdisk"
	// Ring is a cycle on n >= 3 vertices (Δ = 2, D = n/2).
	Ring Topology = "ring"
	// Complete is the complete graph K_n (Δ = n-1, D = 1).
	Complete Topology = "complete"
	// Regular is a connected random near-regular graph: a Hamiltonian
	// cycle plus random chords until every vertex's degree is close to
	// d = max(2, round(Density·(n-1))) (Density 0 picks d = 4) —
	// sweeping Δ at fixed n without changing D much.
	Regular Topology = "regular"
)

// Algorithm names a neighbor-discovery algorithm.
type Algorithm string

// Discovery algorithms.
const (
	// CSeek is the paper's CSEEK (Theorem 4).
	CSeek Algorithm = "cseek"
	// Naive is the introduction's random-hop baseline, O~((c²/k)·Δ).
	Naive Algorithm = "naive"
	// Uniform is the back-off-sweep baseline without density sampling,
	// matching the Zeng et al. bound O~(c²/k + cΔ/k).
	Uniform Algorithm = "uniform"
)

// Scenario is an instantiated network: topology, channel assignment,
// and derived model parameters. A Scenario is immutable once built
// (the deprecated Set* mutators aside) and safe for concurrent
// Primitive runs — the sweep engine shares one Scenario across its
// workers.
type Scenario struct {
	g  *graph.Graph
	a  *chanassign.Assignment
	p  core.Params
	nw *radio.Network
	d  int
	// trace, when set (WithDeliveryTrace), observes every frame
	// delivery of every run on this scenario.
	trace radio.TraceFunc
	// geom is the realized unit-disk point set (nil for non-geometric
	// topologies); mobility models move a per-run clone of it.
	geom *graph.Geometry
	// topo is the composed topology-dynamics prototype (nil for the
	// paper's static model); every run gets a fresh instance via
	// dynamics run scoping.
	topo radio.TopologyFeed
}

// Jammer models primary-user occupancy: Jammed reports whether the
// given global channel is held by a primary user in the given slot.
// Frames broadcast on occupied channels are lost and listeners tuned
// there hear silence. Implementations must be deterministic functions
// of (slot, channel) and safe for concurrent readers.
type Jammer interface {
	Jammed(slot int64, channel int32) bool
}

// New generates a scenario from functional options:
//
//	s, err := crn.New(
//		crn.WithTopology(crn.GNP),
//		crn.WithNodes(24),
//		crn.WithChannels(8, 2, 0),
//		crn.WithSeed(7),
//	)
//
// Primary-user options (WithPeriodicPrimaryUsers,
// WithMarkovPrimaryUsers, WithJammer) apply after the network is
// generated, so they can depend on the realized channel universe.
func New(opts ...ScenarioOption) (*Scenario, error) {
	b := &scenarioBuilder{}
	for _, opt := range opts {
		opt(b)
	}
	if b.err != nil {
		return nil, b.err
	}
	s, err := newGeneratedScenario(b.cfg)
	if err != nil {
		return nil, err
	}
	for _, post := range b.post {
		if err := post(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newGeneratedScenario validates config and generates the network.
func newGeneratedScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("crn: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.C < 1 {
		return nil, fmt.Errorf("crn: need at least 1 channel, got %d", cfg.C)
	}
	if cfg.K < 1 || cfg.K > cfg.C {
		return nil, fmt.Errorf("crn: k must be in [1,c] = [1,%d], got %d", cfg.C, cfg.K)
	}
	kmax := cfg.KMax
	if kmax == 0 {
		kmax = cfg.K
	}
	if kmax < cfg.K || kmax > cfg.C {
		return nil, fmt.Errorf("crn: kmax must be in [k,c] = [%d,%d], got %d", cfg.K, cfg.C, kmax)
	}
	r := rng.New(cfg.Seed)

	g, geom, err := buildTopology(cfg, r)
	if err != nil {
		return nil, err
	}
	var a *chanassign.Assignment
	if kmax == cfg.K {
		a, err = chanassign.SharedCore(g.N(), cfg.C, cfg.K, r)
	} else {
		a, err = chanassign.Heterogeneous(g, cfg.C, cfg.K, kmax, 0.5, r)
	}
	if err != nil {
		return nil, err
	}
	s, err := newScenario(g, a, cfg.Tuning)
	if err != nil {
		return nil, err
	}
	s.geom = geom
	return s, nil
}

// CustomConfig describes an explicit scenario: an edge list plus
// per-node global channel sets. The caller is responsible for making
// every adjacent pair share at least one channel; NewCustomScenario
// verifies it.
type CustomConfig struct {
	// N is the number of nodes.
	N int
	// Edges lists undirected edges between nodes in [0, N).
	Edges [][2]int
	// Universe is the number of global channels.
	Universe int
	// Channels[u] lists node u's global channels; all nodes must have
	// the same count (the model's per-transceiver channel budget c).
	Channels [][]int
	// Seed drives the local channel labeling and the algorithms.
	Seed uint64
	// Tuning overrides constant multipliers; nil uses defaults.
	Tuning *core.Tuning
}

// NewCustomScenario builds a scenario from explicit topology and
// channel sets.
func NewCustomScenario(cfg CustomConfig, opts ...ScenarioOption) (*Scenario, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("crn: need at least 2 nodes, got %d", cfg.N)
	}
	if len(cfg.Channels) != cfg.N {
		return nil, fmt.Errorf("crn: %d channel sets for %d nodes", len(cfg.Channels), cfg.N)
	}
	g := graph.New(cfg.N)
	for _, e := range cfg.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("crn: %w", err)
		}
	}
	g.Finalize()
	if !g.Connected() {
		return nil, fmt.Errorf("crn: custom topology is not connected")
	}
	a, err := chanassign.FromSets(cfg.Universe, cfg.Channels, rng.New(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	kMin, _ := a.OverlapRange(g)
	if kMin < 1 {
		return nil, fmt.Errorf("crn: some adjacent pair shares no channels")
	}
	return assembleScenario(g, a, cfg.Tuning, opts)
}

// NewScenarioFromParts assembles a Scenario directly from a prebuilt
// graph and channel assignment. Because the argument types live in
// internal packages, only code inside this module can call it; the
// experiment harness uses it to run facade Primitives and Sweeps over
// bespoke workloads (weak-link stars, disjoint-sibling trees, ...)
// that the generator options cannot express. Only WithTuning and the
// primary-user options are meaningful in opts — topology-shaping
// options are ignored since the topology is already built.
func NewScenarioFromParts(g *graph.Graph, a *chanassign.Assignment, opts ...ScenarioOption) (*Scenario, error) {
	return assembleScenario(g, a, nil, opts)
}

// assembleScenario builds the Scenario over prebuilt parts and applies
// the options' tuning and post hooks. An explicit tuning wins over a
// WithTuning option.
func assembleScenario(g *graph.Graph, a *chanassign.Assignment, tuning *core.Tuning, opts []ScenarioOption) (*Scenario, error) {
	b := &scenarioBuilder{}
	for _, opt := range opts {
		opt(b)
	}
	if b.err != nil {
		return nil, b.err
	}
	if tuning == nil {
		tuning = b.cfg.Tuning
	}
	s, err := newScenario(g, a, tuning)
	if err != nil {
		return nil, err
	}
	for _, post := range b.post {
		if err := post(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func newScenario(g *graph.Graph, a *chanassign.Assignment, tuning *core.Tuning) (*Scenario, error) {
	// Finalize here, while scenario assembly is single-threaded:
	// radio.NewEngine finalizes too (idempotently), but sweep workers
	// construct engines concurrently over this shared graph, and the
	// first Finalize must not race.
	g.Finalize()
	k, kmax := a.OverlapRange(g)
	p := core.Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree()}
	if tuning != nil {
		p.Tuning = *tuning
	}
	if err := p.Normalize(); err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	d := g.Diameter()
	if d < 1 {
		d = 1
	}
	return &Scenario{g: g, a: a, p: p, nw: &radio.Network{Graph: g, Assign: a}, d: d}, nil
}

func buildTopology(cfg ScenarioConfig, r *rng.Source) (*graph.Graph, *graph.Geometry, error) {
	switch cfg.Topology {
	case GNP, "":
		p := cfg.Density
		if p == 0 {
			p = 0.3
		}
		g, err := graph.GNP(cfg.N, p, r)
		return g, nil, err
	case Star:
		return graph.Star(cfg.N), nil, nil
	case Path:
		return graph.Path(cfg.N), nil, nil
	case Grid:
		rows := 1
		for (rows+1)*(rows+1) <= cfg.N {
			rows++
		}
		cols := (cfg.N + rows - 1) / rows
		g, err := graph.Grid(rows, cols)
		return g, nil, err
	case Chain:
		const clusterSize = 4
		clusters := cfg.N / clusterSize
		if clusters < 1 {
			clusters = 1
		}
		g, err := graph.ClusterChain(clusters, clusterSize)
		return g, nil, err
	case Tree:
		branching := cfg.C - 1
		if branching < 1 {
			branching = 1
		}
		// Smallest height whose complete tree reaches N nodes.
		height, count, level := 0, 1, 1
		for count < cfg.N && height < 20 {
			level *= branching
			count += level
			height++
		}
		g, err := graph.CompleteTree(branching, height)
		return g, nil, err
	case UnitDisk:
		radius := cfg.Density
		if radius == 0 {
			radius = 0.35
		}
		return graph.UnitDiskGeometry(cfg.N, radius, r)
	case Ring:
		g, err := graph.Cycle(cfg.N)
		return g, nil, err
	case Complete:
		if cfg.N < 2 {
			return nil, nil, fmt.Errorf("crn: complete topology needs n >= 2, got %d", cfg.N)
		}
		return graph.Complete(cfg.N), nil, nil
	case Regular:
		if cfg.N < 3 {
			return nil, nil, fmt.Errorf("crn: regular topology needs n >= 3, got %d", cfg.N)
		}
		d := 4
		if cfg.Density != 0 {
			d = int(cfg.Density*float64(cfg.N-1) + 0.5)
		}
		if d < 2 {
			d = 2
		}
		if d >= cfg.N {
			d = cfg.N - 1
		}
		g, err := graph.RandomRegularish(cfg.N, d, r)
		return g, nil, err
	default:
		return nil, nil, fmt.Errorf("crn: unknown topology %q", cfg.Topology)
	}
}

// newPeriodicJammer builds the duty-cycled primary-user model with the
// phase staggered across the scenario's channel universe.
func (s *Scenario) newPeriodicJammer(period, onSlots int64) (spectrum.Jammer, error) {
	stride := period / int64(s.a.Universe)
	if stride < 1 {
		stride = 1
	}
	j, err := spectrum.NewPeriodic(period, onSlots, stride, nil)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return j, nil
}

// autoHorizon is the horizon stochastic primary-user models
// default to: twice a CSEEK schedule, generous enough for any
// primitive whose slot budget is CSEEK-dominated.
func (s *Scenario) autoHorizon() (int64, error) {
	probe, err := core.NewCSeek(s.p, core.Env{ID: 0, C: s.p.C, Rand: rng.New(1)})
	if err != nil {
		return 0, fmt.Errorf("crn: %w", err)
	}
	return 2 * probe.TotalSlots(), nil
}

// newMarkovJammer builds the bursty Markov primary-user model
// (horizon 0 picks autoHorizon).
func (s *Scenario) newMarkovJammer(pBusy, pFree float64, horizon int64, seed uint64) (spectrum.Jammer, error) {
	if horizon == 0 {
		var err error
		if horizon, err = s.autoHorizon(); err != nil {
			return nil, err
		}
	}
	j, err := spectrum.NewMarkov(s.a.Universe, horizon, pBusy, pFree, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return j, nil
}

// newPoissonJammer builds the Poisson-arrival primary-user model
// (horizon 0 picks autoHorizon).
func (s *Scenario) newPoissonJammer(rate, meanHold float64, horizon int64, seed uint64) (spectrum.Jammer, error) {
	if horizon == 0 {
		var err error
		if horizon, err = s.autoHorizon(); err != nil {
			return nil, err
		}
	}
	j, err := spectrum.NewPoisson(s.a.Universe, horizon, rate, meanHold, spectrum.HoldGeometric, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return j, nil
}

// newAdversary builds the t-bounded reactive adversary. t <= 0 picks
// the default budget of a quarter of the channel universe (at least 1)
// — enough to matter, never enough to drown every channel.
func (s *Scenario) newAdversary(t int) spectrum.Jammer {
	if t <= 0 {
		t = s.a.Universe / 4
		if t < 1 {
			t = 1
		}
	}
	return spectrum.NewReactiveAdversary(t)
}

// addJammer stacks j on top of any already-installed primary-user
// model (the ScenarioOption path: options compose, so Markov traffic
// plus an adversary is just two options).
func (s *Scenario) addJammer(j spectrum.Jammer) {
	if cur := s.nw.Jammer; cur != nil {
		j = spectrum.Compose(cur, j)
	}
	s.nw.Jammer = j
}

// newChurn builds the node-churn model over the realized node count.
func (s *Scenario) newChurn(pDown, pUp float64, seed uint64) (radio.TopologyFeed, error) {
	c, err := dynamics.NewChurn(s.g.N(), pDown, pUp, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return c, nil
}

// newEdgeFlap builds the link-flapping model over the realized edges.
func (s *Scenario) newEdgeFlap(pDrop, pRestore float64, seed uint64) (radio.TopologyFeed, error) {
	f, err := dynamics.NewEdgeFlap(s.g.Edges(), pDrop, pRestore, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return f, nil
}

// newMobility builds the random-waypoint model over the scenario's
// realized unit-disk geometry; it errors on topologies without one.
func (s *Scenario) newMobility(speed float64, every int64, seed uint64) (radio.TopologyFeed, error) {
	if s.geom == nil {
		return nil, fmt.Errorf("crn: WithMobility needs a geometric topology (WithTopology(UnitDisk))")
	}
	w, err := dynamics.NewRandomWaypoint(s.geom, speed, every, seed)
	if err != nil {
		return nil, fmt.Errorf("crn: %w", err)
	}
	return w, nil
}

// addTopologyFeed stacks a dynamics model on top of any already
// installed one (the ScenarioOption path: like spectrum options,
// dynamics options compose — churn plus link flapping is two
// options). The composed prototype is instantiated per run.
func (s *Scenario) addTopologyFeed(f radio.TopologyFeed) {
	s.topo = dynamics.Compose(s.topo, f)
}

// setPeriodicPrimaryUsers installs duty-cycled primary users,
// replacing any installed model (the deprecated
// SetPeriodicPrimaryUsers contract).
func (s *Scenario) setPeriodicPrimaryUsers(period, onSlots int64) error {
	if onSlots == 0 {
		s.nw.Jammer = nil
		return nil
	}
	j, err := s.newPeriodicJammer(period, onSlots)
	if err != nil {
		return err
	}
	s.nw.Jammer = j
	return nil
}

// setMarkovPrimaryUsers installs bursty Markov primary users,
// replacing any installed model (the deprecated SetMarkovPrimaryUsers
// contract).
func (s *Scenario) setMarkovPrimaryUsers(pBusy, pFree float64, horizon int64, seed uint64) error {
	j, err := s.newMarkovJammer(pBusy, pFree, horizon, seed)
	if err != nil {
		return err
	}
	s.nw.Jammer = j
	return nil
}

// setJammer installs a custom primary-user model (nil to clear),
// replacing any installed model (the deprecated SetJammer contract).
func (s *Scenario) setJammer(j Jammer) {
	if j == nil {
		s.nw.Jammer = nil
		return
	}
	s.nw.Jammer = j
}

// runNetwork returns the network a single simulation run should use.
// Scenarios are shared read-only across sweep workers, but stateful
// jammers (spectrum.RunScoped — the reactive adversary) and topology
// feeds (always stateful) carry per-run state, so each run gets a
// shallow network copy holding fresh instances; a delivery-trace
// callback rides along the same way. Stateless scenarios return the
// shared network unchanged.
func (s *Scenario) runNetwork() *radio.Network {
	rs, scoped := s.nw.Jammer.(spectrum.RunScoped)
	if !scoped && s.trace == nil && s.topo == nil {
		return s.nw
	}
	nw := *s.nw
	if scoped {
		nw.Jammer = rs.NewRun()
	}
	if s.topo != nil {
		nw.Topology = s.topo
		if drs, ok := s.topo.(dynamics.RunScoped); ok {
			nw.Topology = drs.NewRun()
		}
	}
	if s.trace != nil {
		nw.Trace = s.trace
	}
	return &nw
}

// ModelParams returns the scenario's normalized model parameters,
// including the realized tuning. Like NewScenarioFromParts, the
// internal return type confines callers to this module; the
// experiment harness uses it for schedule math.
func (s *Scenario) ModelParams() core.Params { return s.p }

// N returns the number of nodes.
func (s *Scenario) N() int { return s.g.N() }

// C returns the per-node channel count.
func (s *Scenario) C() int { return s.p.C }

// K returns the realized minimum neighbor overlap.
func (s *Scenario) K() int { return s.p.K }

// KMax returns the realized maximum neighbor overlap.
func (s *Scenario) KMax() int { return s.p.KMax }

// Delta returns the maximum degree Δ.
func (s *Scenario) Delta() int { return s.p.Delta }

// Diameter returns the network diameter D.
func (s *Scenario) Diameter() int { return s.d }

// Universe returns the number of global channels in the scenario.
func (s *Scenario) Universe() int { return s.a.Universe }

// Edges returns the topology's edge list.
func (s *Scenario) Edges() [][2]int {
	out := make([][2]int, 0, s.g.M())
	for _, e := range s.g.Edges() {
		out = append(out, [2]int{int(e.U), int(e.V)})
	}
	return out
}

// SharedChannelCount returns how many channels nodes u and v share.
func (s *Scenario) SharedChannelCount(u, v int) int { return s.a.SharedCount(u, v) }

// String describes the scenario.
func (s *Scenario) String() string {
	return fmt.Sprintf("n=%d c=%d k=%d kmax=%d Δ=%d D=%d edges=%d",
		s.N(), s.C(), s.K(), s.KMax(), s.Delta(), s.Diameter(), s.g.M())
}
