package crn

import (
	"fmt"

	"crn/internal/core"
	"crn/internal/radio"
)

// Tuning exposes the constant multipliers behind the paper's Θ(·)
// schedule lengths; see core.Tuning for the per-field documentation.
// Zero-valued fields fall back to defaults.
type Tuning = core.Tuning

// scenarioBuilder accumulates the effect of ScenarioOptions before a
// Scenario is generated. Options that depend on the realized network
// (primary-user models) register post hooks that run after generation.
type scenarioBuilder struct {
	cfg  ScenarioConfig
	post []func(*Scenario) error
	err  error
}

// ScenarioOption configures New (and the post-generation stage of
// NewCustomScenario / NewScenarioFromParts).
type ScenarioOption func(*scenarioBuilder)

// WithTopology selects the graph generator (default GNP).
func WithTopology(t Topology) ScenarioOption {
	return func(b *scenarioBuilder) { b.cfg.Topology = t }
}

// WithNodes sets the number of nodes n.
func WithNodes(n int) ScenarioOption {
	return func(b *scenarioBuilder) { b.cfg.N = n }
}

// WithChannels sets the channel structure: c channels per node, at
// least k shared channels per neighbor pair, and — when kmax > k — a
// heterogeneous assignment in which roughly half the edges share kmax
// channels. Pass kmax = 0 for the homogeneous kmax = k case.
func WithChannels(c, k, kmax int) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.cfg.C = c
		b.cfg.K = k
		b.cfg.KMax = kmax
	}
}

// WithDensity sets the edge probability for GNP and the radius for
// UnitDisk; zero picks a sensible default.
func WithDensity(d float64) ScenarioOption {
	return func(b *scenarioBuilder) { b.cfg.Density = d }
}

// WithSeed sets the seed driving scenario generation.
func WithSeed(seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) { b.cfg.Seed = seed }
}

// WithTuning overrides the algorithms' constant multipliers;
// zero-valued fields keep their defaults.
func WithTuning(t Tuning) ScenarioOption {
	return func(b *scenarioBuilder) {
		tc := t
		b.cfg.Tuning = &tc
	}
}

// Spectrum-dynamics options stack: each one composes its model with
// whatever earlier options installed (spectrum occupancy is the union),
// so Markov primary traffic plus a bounded adversary is simply
//
//	crn.WithMarkovPrimaryUsers(0.05, 0.15, 0, 7), crn.WithAdversary(2)
//
// The deprecated Scenario.Set* mutators keep their replace semantics.

// WithPeriodicPrimaryUsers installs duty-cycled primary users: every
// global channel is occupied for onSlots out of every period slots,
// with the phase staggered across channels so some spectrum is always
// free.
func WithPeriodicPrimaryUsers(period, onSlots int64) ScenarioOption {
	return func(b *scenarioBuilder) {
		if onSlots <= 0 {
			b.fail(fmt.Errorf("crn: WithPeriodicPrimaryUsers needs onSlots >= 1, got %d", onSlots))
			return
		}
		b.post = append(b.post, func(s *Scenario) error {
			j, err := s.newPeriodicJammer(period, onSlots)
			if err != nil {
				return err
			}
			s.addJammer(j)
			return nil
		})
	}
}

// WithMarkovPrimaryUsers installs bursty primary users: each global
// channel flips between idle and occupied with the given per-slot
// transition probabilities (idle→busy pBusy, busy→idle pFree), over a
// horizon of `horizon` slots, idle beyond it (0 picks a horizon
// generous enough for a CSEEK run). The seed drives the occupancy
// trajectory; the stationary occupancy is pBusy/(pBusy+pFree).
func WithMarkovPrimaryUsers(pBusy, pFree float64, horizon int64, seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			j, err := s.newMarkovJammer(pBusy, pFree, horizon, seed)
			if err != nil {
				return err
			}
			s.addJammer(j)
			return nil
		})
	}
}

// WithPoissonPrimaryUsers installs Poisson primary users: on each
// global channel transmissions arrive at `rate` per slot and hold the
// channel for a geometrically distributed time with mean meanHold
// slots, over a horizon of `horizon` slots, idle beyond it (0 picks
// a horizon generous enough for a CSEEK run). The seed drives the
// arrival trajectory.
func WithPoissonPrimaryUsers(rate, meanHold float64, horizon int64, seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			j, err := s.newPoissonJammer(rate, meanHold, horizon, seed)
			if err != nil {
				return err
			}
			s.addJammer(j)
			return nil
		})
	}
}

// WithAdversary installs the paper's t-bounded adaptive adversary: it
// observes aggregate secondary-user activity with a one-slot delay and
// jams the t busiest channels each slot. t <= 0 picks a default budget
// of a quarter of the channel universe. The adversary is stateful and
// run-scoped: every primitive run (including each run inside a Sweep)
// faces a fresh instance, so results stay deterministic per seed and
// identical at any worker count.
func WithAdversary(t int) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			s.addJammer(s.newAdversary(t))
			return nil
		})
	}
}

// WithJammer installs a custom primary-user model, stacking with any
// spectrum option before it. A nil jammer clears everything installed
// so far — the escape hatch back to clear spectrum when building on
// top of a preset.
func WithJammer(j Jammer) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			if j == nil {
				s.nw.Jammer = nil
				return nil
			}
			s.addJammer(j)
			return nil
		})
	}
}

// Topology-dynamics options make the *graph* time-varying the way the
// spectrum options make the *channels* time-varying. They stack the
// same way (models compose into one per-slot feed), are applied after
// generation (they need the realized nodes/edges/geometry), and stay
// sweep-safe: every run — including each run inside a Sweep — gets a
// fresh model instance, so trajectories are deterministic per
// scenario and byte-identical at any worker count. With any of them
// installed, results carry a Result.Topology detail block.

// WithChurn installs node churn: each node independently goes down
// with probability pDown per slot and rejoins with probability pUp
// per slot (mean downtime 1/pUp slots). Down nodes neither transmit
// nor observe; their protocols freeze on their local clocks until
// rejoin. The seed fixes the whole churn trajectory.
func WithChurn(pDown, pUp float64, seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			c, err := s.newChurn(pDown, pUp, seed)
			if err != nil {
				return err
			}
			s.addTopologyFeed(c)
			return nil
		})
	}
}

// WithEdgeFlap installs link flapping: each realized edge
// independently drops with probability pDrop per slot and restores
// with probability pRestore per slot (mean outage 1/pRestore slots) —
// fading links under stationary radios. The seed fixes the whole flap
// trajectory.
func WithEdgeFlap(pDrop, pRestore float64, seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			f, err := s.newEdgeFlap(pDrop, pRestore, seed)
			if err != nil {
				return err
			}
			s.addTopologyFeed(f)
			return nil
		})
	}
}

// WithMobility installs random-waypoint mobility over the scenario's
// unit-disk geometry: nodes move toward uniformly random waypoints at
// `speed` distance per slot (the unit square has side 1) and the edge
// set is re-derived from positions every `every` slots. It requires
// WithTopology(UnitDisk) — only geometric topologies carry the point
// set mobility moves. The seed fixes the whole motion trail.
func WithMobility(speed float64, every int64, seed uint64) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			w, err := s.newMobility(speed, every, seed)
			if err != nil {
				return err
			}
			s.addTopologyFeed(w)
			return nil
		})
	}
}

// DeliveryTraceFunc observes one frame delivery: in the given slot,
// `listener` heard the frame `sender` broadcast on global channel
// `channel`. See WithDeliveryTrace.
type DeliveryTraceFunc func(slot int64, listener, sender, channel int)

// WithDeliveryTrace installs a callback observing every frame delivery
// of every run on the scenario — the hook golden-trace regression
// tests and debugging front-ends record through. The callback runs on
// the engine goroutine of whichever run resolved the delivery;
// concurrent runs (Sweep with Workers > 1) invoke it concurrently, so
// trace single runs or synchronize in fn.
func WithDeliveryTrace(fn DeliveryTraceFunc) ScenarioOption {
	return func(b *scenarioBuilder) {
		b.post = append(b.post, func(s *Scenario) error {
			if fn == nil {
				s.trace = nil
				return nil
			}
			s.trace = func(slot int64, listener radio.NodeID, ch int32, msg *radio.Message) {
				fn(slot, int(listener), int(msg.From), int(ch))
			}
			return nil
		})
	}
}

// fail records the first option error; New reports it before
// generating anything.
func (b *scenarioBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
