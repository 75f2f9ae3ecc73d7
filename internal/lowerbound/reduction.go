package lowerbound

import (
	"fmt"

	"crn/internal/radio"
)

// ReductionPlayer implements the Lemma 11 construction: it turns any
// neighbor-discovery protocol into a bipartite-hitting player.
//
// The player simulates a two-node network. Node u runs the protocol
// over channel set A (local labels = A-side indices) and node v over
// channel set B. Each simulated slot, the player reads the channels
// the two instances tune to and proposes that (a, b) pair. While the
// proposals miss, u and v have provably not met on a shared channel,
// so feeding both instances silence is a faithful simulation. The
// first time the pair lands in the hidden matching, the player wins.
//
// If a protocol instance finishes its schedule without winning (the
// discovery attempt failed), the player restarts both instances with
// fresh protocols — matching the "probability at least 1/2" framing of
// Lemma 11, where the guarantee is per execution.
type ReductionPlayer struct {
	mk    func(restart int) (u, v radio.Protocol)
	u, v  radio.Protocol
	slot  int64
	runs  int
	a, b  int
	ready bool
}

// NewReductionPlayer wraps a protocol factory. mk is called once per
// (re)start with an incrementing counter and must return the two nodes'
// protocol instances (fresh randomness each restart).
func NewReductionPlayer(mk func(restart int) (u, v radio.Protocol)) (*ReductionPlayer, error) {
	if mk == nil {
		return nil, fmt.Errorf("lowerbound: nil protocol factory")
	}
	p := &ReductionPlayer{mk: mk}
	p.restart()
	return p, nil
}

func (p *ReductionPlayer) restart() {
	p.u, p.v = p.mk(p.runs)
	p.runs++
	p.slot = 0
}

// Restarts returns how many times the wrapped protocol was restarted
// (0 while the first execution is still running).
func (p *ReductionPlayer) Restarts() int { return p.runs - 1 }

// NextProposal implements Player: it advances the simulation one slot
// and proposes the channel pair the two nodes tuned to.
func (p *ReductionPlayer) NextProposal() (int, int) {
	if p.u.Done() || p.v.Done() {
		p.restart()
	}
	au := p.u.Act(p.slot)
	av := p.v.Act(p.slot)
	p.a, p.b = au.Ch, av.Ch
	p.ready = true
	return p.a, p.b
}

// ObserveMiss implements Player: a miss certifies the two simulated
// nodes were not on a shared channel, so both observe silence.
func (p *ReductionPlayer) ObserveMiss() {
	if !p.ready {
		return
	}
	p.u.Observe(p.slot, radio.Delivery{From: -1})
	p.v.Observe(p.slot, radio.Delivery{From: -1})
	p.slot++
	p.ready = false
}
