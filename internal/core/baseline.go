package core

import (
	"fmt"

	"crn/internal/radio"
	"crn/internal/rng"
)

// Baseline neighbor-discovery strategies the paper compares against.
//
// NaiveSeek is the introduction's "simple and straightforward
// strategy": hop among channels uniformly at random and broadcast or
// listen with some probability, resolving contention with a fixed
// worst-case back-off probability of 1/Δ. Without contention
// estimation the safe choice is the worst case, which is what yields
// the O~((c²/k)·Δ) bound quoted in Section 1.
//
// UniformSeek replaces the fixed probability with the same per-step
// lg Δ back-off sweep CSEEK uses, but keeps listeners hopping
// uniformly (no density sampling, no part one). This is the shape of
// the Zeng et al. algorithm discussed in Section 2, with time
// O~(c²/k + c·Δ/k): always at least as slow as CSEEK because c ≥ kmax.

// Discoverer is the interface shared by all neighbor-discovery
// protocols; harnesses use it to measure time-to-discovery uniformly.
// Every discoverer records whom it heard in the same sorted first-heard
// table (heardTable).
type Discoverer interface {
	radio.Protocol
	// Heard returns the identities heard so far in ascending order, and
	// the slot each was first heard in (views of the table).
	Heard() ([]radio.NodeID, []int64)
	// DiscoveredCount returns the number of distinct identities heard.
	DiscoveredCount() int
	// TotalSlots returns the protocol's fixed schedule length.
	TotalSlots() int64
}

var (
	_ Discoverer = (*CSeek)(nil)
	_ Discoverer = (*NaiveSeek)(nil)
	_ Discoverer = (*UniformSeek)(nil)
)

// NaiveSeek is the single-slot-step baseline: every slot, hop to a
// uniform channel; with probability 1/2 listen, otherwise broadcast
// the node's identity with probability 1/Δ.
type NaiveSeek struct {
	env      Env
	delta    int
	slots    int64
	maxSlots int64
	listen   bool
	heardTable
}

// NewNaiveSeek returns the naive baseline with the schedule
// Tuning.NaiveSlots·(c²/k)·Δ·lg n slots.
func NewNaiveSeek(p Params, env Env) (*NaiveSeek, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	slots := int64(scaledSteps(p.Tuning.NaiveSlots, ceilDiv(p.C*p.C, p.K)*p.Delta, p.LgN()))
	return &NaiveSeek{
		env:        env,
		delta:      p.Delta,
		maxSlots:   slots,
		heardTable: newHeardTable(p.Delta),
	}, nil
}

// Act implements radio.Protocol.
func (s *NaiveSeek) Act(_ int64) radio.Action {
	ch := s.env.Rand.Intn(s.env.C)
	s.listen = s.env.Rand.Bool()
	if s.listen {
		return radio.Action{Kind: radio.Listen, Ch: ch}
	}
	if s.env.Rand.OneIn(s.delta) {
		return radio.Action{Kind: radio.Broadcast, Ch: ch}
	}
	return radio.Action{Kind: radio.Idle, Ch: ch}
}

// Observe implements radio.Protocol.
func (s *NaiveSeek) Observe(_ int64, d radio.Delivery) {
	if s.listen && d.From >= 0 {
		s.hear(d.From, s.slots, 0)
	}
	s.slots++
}

// Done implements radio.Protocol.
func (s *NaiveSeek) Done() bool { return s.slots >= s.maxSlots }

// TotalSlots implements Discoverer.
func (s *NaiveSeek) TotalSlots() int64 { return s.maxSlots }

// MinDoneSlots implements radio.FixedSchedule: Done fires exactly at
// the schedule budget.
func (s *NaiveSeek) MinDoneSlots() int64 { return s.maxSlots }

// UniformSeek is the back-off-sweep baseline without density sampling:
// steps of lg Δ slots; every step each node flips a role coin and picks
// a uniformly random channel; broadcasters run the 2^(i-1)/Δ back-off
// sweep, listeners listen.
type UniformSeek struct {
	env       Env
	slotsStep int
	steps     int
	step      int
	stepSlot  int
	slot      int64
	listener  bool
	ch        int
	backoff   []rng.Coin // CSEEK's part-two coins
	bcast     uint64     // back-off decisions of this step, bit i for slot i
	heardTable
}

// NewUniformSeek returns the uniform-listen baseline with schedule
// Tuning.P2Steps·((c²+c·Δ)/k)·lg n steps of lg Δ slots, matching the
// O~(c²/k + c·Δ/k) bound of Zeng et al.
func NewUniformSeek(p Params, env Env) (*UniformSeek, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	base := ceilDiv(p.C*p.C+p.C*p.Delta, p.K)
	return &UniformSeek{
		env:        env,
		slotsStep:  p.LgDelta(),
		steps:      scaledSteps(p.Tuning.P2Steps, base, p.LgN()),
		backoff:    p.backoffCoins(),
		heardTable: newHeardTable(p.Delta),
	}, nil
}

// Act implements radio.Protocol.
func (s *UniformSeek) Act(_ int64) radio.Action {
	if s.stepSlot == 0 {
		s.beginStep()
	}
	if s.listener {
		return radio.Action{Kind: radio.Listen, Ch: s.ch}
	}
	if s.bcast>>uint(s.stepSlot)&1 != 0 {
		return radio.Action{Kind: radio.Broadcast, Ch: s.ch}
	}
	return radio.Action{Kind: radio.Idle, Ch: s.ch}
}

func (s *UniformSeek) beginStep() {
	s.listener = s.env.Rand.Bool()
	s.ch = s.env.Rand.Intn(s.env.C)
	if s.listener {
		return
	}
	s.bcast = 0
	for i, c := range s.backoff {
		if s.env.Rand.Toss(c) {
			s.bcast |= 1 << uint(i)
		}
	}
}

// Observe implements radio.Protocol.
func (s *UniformSeek) Observe(_ int64, d radio.Delivery) {
	if s.listener && d.From >= 0 {
		s.hear(d.From, s.slot, 0)
	}
	s.slot++
	s.stepSlot++
	if s.stepSlot == s.slotsStep {
		s.stepSlot = 0
		s.step++
	}
}

// Done implements radio.Protocol.
func (s *UniformSeek) Done() bool { return s.step >= s.steps }

// TotalSlots implements Discoverer.
func (s *UniformSeek) TotalSlots() int64 { return int64(s.steps) * int64(s.slotsStep) }

// MinDoneSlots implements radio.FixedSchedule: the step counter only
// reaches its bound when the whole fixed schedule has been observed.
func (s *UniformSeek) MinDoneSlots() int64 { return s.TotalSlots() }
