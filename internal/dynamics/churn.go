package dynamics

import (
	"fmt"

	"crn/internal/radio"
)

// Churn models node churn as independent per-node on/off processes:
// an up node goes down with probability pDown per slot (Poisson-like
// failure arrivals in discrete time) and a down node rejoins with
// probability pUp per slot, so downtimes are geometric with mean
// 1/pUp slots. All nodes start up. Down nodes neither transmit nor
// observe — their protocols freeze on their local clocks until
// rejoin, exactly a device powering off and back on mid-algorithm.
//
// Determinism: node u's process runs on rng.New(seed).Split(u), so
// the whole churn trajectory is a pure function of (seed, n) —
// independent of engine internals and identical at any worker count.
// Waiting times between transitions are drawn directly (geometric
// skip-ahead; see calendar.go), so a slot with no transitions costs
// O(1) instead of n Bernoulli draws.
type Churn struct {
	n          int
	pDown, pUp float64
	seed       uint64
	chains     chains  // one per node; off is down
	lastJoin   []int64 // latest rejoin slot per node, -1 never
	lastMut    radio.TopologyMutator
}

// NewChurn returns a churn model over n nodes. Probabilities must be
// in [0, 1].
func NewChurn(n int, pDown, pUp float64, seed uint64) (*Churn, error) {
	if n < 1 {
		return nil, fmt.Errorf("dynamics: churn needs n >= 1, got %d", n)
	}
	if pDown < 0 || pDown > 1 || pUp < 0 || pUp > 1 {
		return nil, fmt.Errorf("dynamics: churn probabilities must be in [0,1], got %v and %v", pDown, pUp)
	}
	c := &Churn{
		n: n, pDown: pDown, pUp: pUp, seed: seed,
		chains:   newChains(n, pDown, pUp, seed),
		lastJoin: make([]int64, n),
	}
	for u := range c.lastJoin {
		c.lastJoin[u] = -1
	}
	return c, nil
}

// NewRun implements RunScoped.
func (c *Churn) NewRun() radio.TopologyFeed {
	fresh, err := NewChurn(c.n, c.pDown, c.pUp, c.seed)
	if err != nil {
		panic(err) // validated at construction
	}
	return fresh
}

// Step implements radio.TopologyFeed: apply the transitions due this
// step and reconcile the engine's up set.
func (c *Churn) Step(slot int64, mut radio.TopologyMutator) {
	if mut != c.lastMut {
		// New engine (multi-stage pipeline): re-establish current state
		// over its fresh base topology.
		c.lastMut = mut
		for u, down := range c.chains.off {
			mut.SetNodeUp(u, !down)
		}
	}
	c.chains.step(func(u int, down bool) {
		if !down {
			c.lastJoin[u] = slot
		}
		mut.SetNodeUp(u, !down)
	})
}

// LastJoin implements JoinLog.
func (c *Churn) LastJoin(u int) int64 {
	if u < 0 || u >= c.n {
		return -1
	}
	return c.lastJoin[u]
}
