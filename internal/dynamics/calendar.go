package dynamics

import (
	"math"

	"crn/internal/rng"
)

// This file implements the chain set behind the churn and link-flap
// models: independent two-state Markov chains advanced once per slot.
// Stepping every chain with a Bernoulli draw costs O(chains) per slot
// even when nothing happens, which used to dominate the dynamics slot
// budget (a ~300-edge flap model burned ~1.5µs/slot on draws alone).
// Instead each chain draws its *waiting time* to the next transition
// directly — the geometric distribution the Bernoulli sequence induces
// — and parks in a min-heap keyed by that step, so a slot costs
// O(transitions due) heap pops and an O(1) peek when nothing is due.
//
// The trade: trajectories are sampled with one uniform draw per
// transition instead of one per slot, so a given seed produces a
// *different* (but identically distributed) trajectory than the old
// per-slot sampler. Determinism is preserved — each chain draws from
// its own split stream, so the trajectory remains a pure function of
// (seed, chain count) and is independent of engine internals.

// neverStep parks a chain that cannot leave its current state
// (transition probability 0). Far enough out that step counters never
// reach it, near enough that adding a gap cannot overflow.
const neverStep = math.MaxInt64 / 4

// gapSampler draws geometric waiting times for one transition
// probability, with 1/log(1-p) precomputed so each draw costs a single
// log. Build with newGapSampler; ok reports whether transitions can
// happen at all (p > 0).
type gapSampler struct {
	invLog float64 // 1 / log(1-p); 0 when p >= 1
	ok     bool    // p > 0
}

func newGapSampler(p float64) gapSampler {
	if p <= 0 {
		return gapSampler{}
	}
	if p >= 1 {
		return gapSampler{ok: true}
	}
	return gapSampler{invLog: 1 / math.Log1p(-p), ok: true}
}

// draw returns the number of Bernoulli(p) trials up to and including
// the first success — the waiting time to a chain's next transition —
// in O(1) by inverting the geometric CDF. Only valid when ok.
func (s gapSampler) draw(r *rng.Source) int64 {
	if s.invLog == 0 {
		return 1 // p >= 1: every trial succeeds
	}
	u := r.Float64()
	// u ∈ [0,1) so log1p(-u) = log(1-u) ∈ (-inf, 0]; invLog < 0.
	ratio := math.Log1p(-u) * s.invLog
	if ratio >= float64(neverStep) {
		// Astronomically unlikely tail (and the inf guard for u
		// rounding to 1): park rather than overflow.
		return neverStep
	}
	g := 1 + int64(ratio)
	if g < 1 {
		// Floating-point edge: ratio rounded just below 0.
		return 1
	}
	return g
}

// chains is a set of independent two-state Markov chains. Every chain
// starts on; an on chain turns off with probability pOff per step, and
// an off chain turns back on with probability pOn. Churn runs one chain
// per node (off is down), EdgeFlap one per base edge (off is absent).
//
// Chain i draws from rng.New(seed).Split(i): first the gap to its
// first turn-off, in chain order at construction, then one gap per
// transition, in (step, chain) order.
type chains struct {
	offGap  gapSampler   // waiting time to turn off while on
	onGap   gapSampler   // waiting time to turn back on while off
	streams []rng.Source // flat, one per chain: gap draws stay cache-local
	off     []bool
	cal     calendar
	steps   int64 // internal step count, not the engine slot: one feed may span several engines
}

func newChains(n int, pOff, pOn float64, seed uint64) chains {
	c := chains{
		offGap:  newGapSampler(pOff),
		onGap:   newGapSampler(pOn),
		streams: make([]rng.Source, n),
		off:     make([]bool, n),
		cal:     calendar{h: make([]calEntry, 0, n)},
	}
	var master rng.Source
	master.Reseed(seed)
	for i := range c.streams {
		c.streams[i] = master.SplitValue(uint64(i))
		if c.offGap.ok {
			// A gap of g puts the first Bernoulli success on step g-1
			// (steps count from 0).
			c.cal.schedule(int32(i), c.offGap.draw(&c.streams[i])-1)
		}
	}
	return c
}

// step applies the transitions due at the next step, handing each
// flipped chain and the state it entered to flip, in chain order.
func (c *chains) step(flip func(i int, off bool)) {
	step := c.steps
	c.steps++
	for {
		i := c.cal.peekDue(step)
		if i < 0 {
			return
		}
		off := !c.off[i]
		c.off[i] = off
		flip(int(i), off)
		// Exit sampler of the state just entered; !ok parks the chain
		// there forever.
		exit := c.offGap
		if off {
			exit = c.onGap
		}
		if exit.ok {
			c.cal.replaceTop(step + exit.draw(&c.streams[i]))
		} else {
			c.cal.popTop()
		}
	}
}

// calEntry is one parked chain: the absolute step its next transition
// fires at, and its index. Keeping the key inside the heap slice keeps
// sift comparisons on one cache line instead of chasing a side array.
type calEntry struct {
	at  int64
	idx int32
}

// calendar is a binary min-heap of chain transition events ordered by
// (step, chain index) — the index tiebreak makes pop order fully
// deterministic. Every chain is in the heap at most once; chains that
// can never transition again are simply not re-scheduled.
type calendar struct {
	h []calEntry
}

// schedule (re)inserts chain idx with its next transition at step `at`.
// The chain must not currently be in the heap.
func (c *calendar) schedule(idx int32, at int64) {
	c.h = append(c.h, calEntry{at: at, idx: idx})
	c.siftUp(len(c.h) - 1)
}

// peekDue returns the chain at the top of the heap if its transition
// is due at or before step, -1 otherwise — the common no-transition
// slot costs this one comparison. The caller must follow up with
// replaceTop (chain transitions again later) or popTop (chain parks),
// then peek again to drain further due chains.
func (c *calendar) peekDue(step int64) int32 {
	if len(c.h) == 0 || c.h[0].at > step {
		return -1
	}
	return c.h[0].idx
}

// replaceTop reschedules the top chain to step `at` in place — one
// sift instead of a pop+push pair, which matters because almost every
// transition immediately reschedules.
func (c *calendar) replaceTop(at int64) {
	c.h[0].at = at
	c.siftDown(0)
}

// popTop removes the top chain (it cannot transition again).
func (c *calendar) popTop() {
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	if last > 0 {
		c.siftDown(0)
	}
}

func less(a, b calEntry) bool {
	return a.at < b.at || (a.at == b.at && a.idx < b.idx)
}

func (c *calendar) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(c.h[i], c.h[p]) {
			return
		}
		c.h[i], c.h[p] = c.h[p], c.h[i]
		i = p
	}
}

func (c *calendar) siftDown(i int) {
	n := len(c.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && less(c.h[r], c.h[l]) {
			m = r
		}
		if !less(c.h[m], c.h[i]) {
			return
		}
		c.h[i], c.h[m] = c.h[m], c.h[i]
		i = m
	}
}
