package core

import (
	"slices"

	"crn/internal/radio"
	"crn/internal/rng"
)

// COUNT (Section 4.1, Appendix A): one listener and an unknown number
// m ≤ Δ of broadcasters share a channel; the listener wants an estimate
// of m within a constant factor.
//
// The procedure runs lg Δ rounds of Θ(lg n) slots. In round i the
// shared estimate is 2^(i-1); each broadcaster broadcasts its identity
// in each slot independently with probability 1/2^(i-1), and the
// listener counts the slots in which it hears a message. The listener
// adopts 2^(i+1) as its count in the first round whose heard fraction
// exceeds the trigger threshold; if no round triggers, the count falls
// back to the number of distinct identities heard — which happens
// exactly when there are so few broadcasters that contention was never
// significant.
//
// Lemma 1: the estimate lands in [m, 4m] w.h.p.

// countSchedule fixes the COUNT slot layout derived from Params.
type countSchedule struct {
	rounds        int
	slotsPerRound int
	threshold     float64
	// coins[r] is the per-slot broadcast coin of round r, probability
	// 1/2^r, so the per-slot hot path compares integers instead of
	// drawing a float.
	coins []rng.Coin
}

func (p Params) countSchedule() countSchedule {
	slots := int(p.Tuning.CountSlotsPerRound * float64(p.LgN()))
	if slots < p.Tuning.CountMinRoundSlots {
		slots = p.Tuning.CountMinRoundSlots
	}
	// Estimates go 1, 2, 4, … and must reach Δ: lgΔ+1 rounds.
	rounds := p.LgDelta() + 1
	coins := make([]rng.Coin, rounds)
	for r := range coins {
		coins[r] = rng.NewCoin(1 / float64(int64(1)<<uint(r)))
	}
	return countSchedule{
		rounds:        rounds,
		slotsPerRound: slots,
		threshold:     p.Tuning.CountThreshold,
		coins:         coins,
	}
}

// TotalSlots returns the length of one COUNT execution.
func (s countSchedule) TotalSlots() int { return s.rounds * s.slotsPerRound }

// round returns the round index (0-based) of a slot within COUNT.
func (s countSchedule) round(slot int) int { return slot / s.slotsPerRound }

// countListener is the state of one COUNT execution: its position in
// the schedule, tracked with incremental counters (no per-slot
// division), and the listener's tallies. A CSEEK part-one step keeps
// one in either role (a broadcaster reads its round from it), and so
// does the standalone CountListen protocol. Callers feed it exactly one
// outcome per slot from the start of an execution; they keep the
// record of whom they heard, and report a sender first heard in this
// execution as fresh.
type countListener struct {
	heardIn     int  // messages heard in the current round
	slotInRound int  // slots consumed in the current round
	round       int  // current round index
	triggered   bool // an estimate has been adopted
	estimate    int64
	distinct    int64 // identities first heard in this execution
}

// observeOutcome processes the outcome of one slot.
func (l *countListener) observeOutcome(sched *countSchedule, heard, fresh bool) {
	if heard {
		l.heardIn++
		if fresh {
			l.distinct++
		}
	}
	l.slotInRound++
	if l.slotInRound < sched.slotsPerRound {
		return
	}
	// Round boundary: apply the trigger rule.
	if !l.triggered {
		frac := float64(l.heardIn) / float64(sched.slotsPerRound)
		if frac > sched.threshold {
			l.triggered = true
			// Estimate 2^(i+1) with i the 1-based round index round+1.
			l.estimate = int64(1) << uint(l.round+2)
		}
	}
	l.heardIn = 0
	l.slotInRound = 0
	l.round++
}

// count returns the adopted estimate (see the package comment on the
// no-trigger fallback).
func (l *countListener) count() int64 {
	if l.triggered {
		return l.estimate
	}
	return l.distinct
}

// CountListen is the standalone listener protocol for COUNT on a fixed
// local channel, used by the Lemma 1 experiment and by tests.
type CountListen struct {
	sched countSchedule
	ch    int
	slot  int
	l     countListener
	heard heardTable
}

var _ radio.Protocol = (*CountListen)(nil)

// NewCountListen returns a listener running one COUNT execution on
// local channel ch.
func NewCountListen(p Params, ch int) (*CountListen, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	return &CountListen{
		sched: p.countSchedule(),
		ch:    ch,
		heard: newHeardTable(p.Delta),
	}, nil
}

// Act implements radio.Protocol.
func (c *CountListen) Act(_ int64) radio.Action {
	return radio.Action{Kind: radio.Listen, Ch: c.ch}
}

// Observe implements radio.Protocol. The whole execution is one step,
// so every entry carries stamp 0 and only a new identity is fresh.
func (c *CountListen) Observe(_ int64, d radio.Delivery) {
	heard := d.From >= 0
	fresh := heard && c.heard.hear(d.From, int64(c.slot), 0)
	c.l.observeOutcome(&c.sched, heard, fresh)
	c.slot++
}

// Done implements radio.Protocol.
func (c *CountListen) Done() bool { return c.slot >= c.sched.TotalSlots() }

// Count returns the estimate; meaningful once Done.
func (c *CountListen) Count() int64 { return c.l.count() }

// Heard returns the identities of all broadcasters heard at least once,
// in ascending order. The caller owns the returned slice.
func (c *CountListen) Heard() []radio.NodeID { return slices.Clone(c.heard.ids) }

// CountBroadcast is the standalone broadcaster protocol for COUNT.
type CountBroadcast struct {
	sched       countSchedule
	env         Env
	ch          int
	slot        int
	round       int // current round, tracked incrementally
	slotInRound int
}

var _ radio.Protocol = (*CountBroadcast)(nil)

// NewCountBroadcast returns a broadcaster participating in one COUNT
// execution on local channel ch.
func NewCountBroadcast(p Params, env Env, ch int) (*CountBroadcast, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	return &CountBroadcast{sched: p.countSchedule(), env: env, ch: ch}, nil
}

// Act implements radio.Protocol.
func (c *CountBroadcast) Act(_ int64) radio.Action {
	if c.env.Rand.Toss(c.sched.coins[c.round]) {
		return radio.Action{Kind: radio.Broadcast, Ch: c.ch}
	}
	return radio.Action{Kind: radio.Idle}
}

// Observe implements radio.Protocol.
func (c *CountBroadcast) Observe(_ int64, _ radio.Delivery) {
	c.slot++
	c.slotInRound++
	if c.slotInRound == c.sched.slotsPerRound && c.round+1 < c.sched.rounds {
		c.round++
		c.slotInRound = 0
	}
}

// Done implements radio.Protocol.
func (c *CountBroadcast) Done() bool { return c.slot >= c.sched.TotalSlots() }
