package dynamics

import (
	"fmt"
	"math"

	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// RandomWaypoint models node mobility with the classic random-
// waypoint process over the unit-disk geometry a scenario was
// generated from: each node moves toward a uniformly random waypoint
// in the unit square at `speed` distance per slot, draws a new
// waypoint on arrival, and the edge set is re-derived from the moved
// positions — pairs within the geometry's radius are neighbors —
// every `every` slots (the epoch stride; movement between epochs is
// applied in one epoch-sized hop, so finer strides trade simulation
// cost for fidelity).
//
// Determinism: waypoint draws come from one rng stream consumed in
// fixed node order inside the sequential Step, so the whole motion
// trail is a pure function of (seed, geometry).
type RandomWaypoint struct {
	base    *graph.Geometry
	speed   float64
	every   int64
	seed    uint64
	geom    *graph.Geometry // mutable per-run positions
	r       *rng.Source
	wx, wy  []float64
	steps   int64
	lastMut radio.TopologyMutator
}

// NewRandomWaypoint returns a mobility model over the given geometry
// (cloned; the scenario's realized geometry stays fixed). speed is
// distance per slot (> 0, with 1 the side of the square); every is
// the epoch stride in slots (>= 1).
func NewRandomWaypoint(geom *graph.Geometry, speed float64, every int64, seed uint64) (*RandomWaypoint, error) {
	if geom == nil || len(geom.X) == 0 {
		return nil, fmt.Errorf("dynamics: mobility needs a unit-disk geometry")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("dynamics: mobility speed must be > 0, got %v", speed)
	}
	if every < 1 {
		return nil, fmt.Errorf("dynamics: mobility epoch stride must be >= 1, got %d", every)
	}
	w := &RandomWaypoint{base: geom, speed: speed, every: every, seed: seed}
	w.reset()
	return w, nil
}

func (w *RandomWaypoint) reset() {
	w.geom = w.base.Clone()
	w.r = rng.New(w.seed)
	n := len(w.geom.X)
	w.wx = make([]float64, n)
	w.wy = make([]float64, n)
	for u := 0; u < n; u++ {
		w.wx[u] = w.r.Float64()
		w.wy[u] = w.r.Float64()
	}
	w.steps = 0
	w.lastMut = nil
}

// NewRun implements RunScoped.
func (w *RandomWaypoint) NewRun() radio.TopologyFeed {
	fresh, err := NewRandomWaypoint(w.base, w.speed, w.every, w.seed)
	if err != nil {
		panic(err) // validated at construction
	}
	return fresh
}

// Positions returns the current per-run positions (a test and
// debugging hook). The caller must not modify the slices.
func (w *RandomWaypoint) Positions() (x, y []float64) { return w.geom.X, w.geom.Y }

// Step implements radio.TopologyFeed. The first epoch (the model's
// first slot) reconciles without moving — the realized topology runs
// as generated, and the first position update lands `every` slots in.
func (w *RandomWaypoint) Step(_ int64, mut radio.TopologyMutator) {
	resync := mut != w.lastMut
	w.lastMut = mut
	epoch := w.steps%w.every == 0
	first := w.steps == 0
	w.steps++
	if !epoch && !resync {
		return
	}
	if epoch && !first {
		w.move(w.speed * float64(w.every))
	}
	w.reconcile(mut)
}

// move advances every node toward its waypoint by dist, drawing new
// waypoints on arrival (leftover distance carries into the new leg).
func (w *RandomWaypoint) move(dist float64) {
	for u := range w.geom.X {
		left := dist
		for left > 0 {
			dx, dy := w.wx[u]-w.geom.X[u], w.wy[u]-w.geom.Y[u]
			d := math.Hypot(dx, dy)
			if d <= left {
				w.geom.X[u], w.geom.Y[u] = w.wx[u], w.wy[u]
				left -= d
				w.wx[u], w.wy[u] = w.r.Float64(), w.r.Float64()
				if d == 0 {
					// Degenerate zero-length leg: burn the remainder so
					// the loop terminates.
					left = 0
				}
				continue
			}
			w.geom.X[u] += float64(dx / d * left)
			w.geom.Y[u] += float64(dy / d * left)
			left = 0
		}
	}
}

// reconcile converges the mutator's edge set to the geometric one.
func (w *RandomWaypoint) reconcile(mut radio.TopologyMutator) {
	n := len(w.geom.X)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if w.geom.InRange(u, v) {
				mut.AddEdge(u, v)
			} else {
				mut.RemoveEdge(u, v)
			}
		}
	}
}
