package core

import (
	"fmt"

	"crn/internal/radio"
)

// Rendezvous-style baselines (Section 2, related work). Channel-
// hopping rendezvous algorithms guarantee that neighbors repeatedly
// land on shared channels, but — as the paper argues — "simple meeting
// does not always imply successful exchange of identities": when many
// nodes meet at once, collisions destroy the frames. These protocols
// let experiments separate meetings from deliveries and show that the
// contention resolution CSEEK layers on top is what actually solves
// discovery.

// HopStrategy selects how a hopping broadcaster decides to transmit.
type HopStrategy uint8

// Broadcaster strategies.
const (
	// HopAlways broadcasts in every slot — pure rendezvous behavior.
	HopAlways HopStrategy = iota + 1
	// HopCoin broadcasts with probability 1/2.
	HopCoin
	// HopBackoff sweeps the CSEEK back-off levels: in successive slots
	// it broadcasts with probability 2^i/2^(lgΔ), i cycling 0..lgΔ-1.
	HopBackoff
)

// String implements fmt.Stringer.
func (s HopStrategy) String() string {
	switch s {
	case HopAlways:
		return "always"
	case HopCoin:
		return "coin"
	case HopBackoff:
		return "backoff"
	default:
		return fmt.Sprintf("HopStrategy(%d)", uint8(s))
	}
}

// HopBroadcaster hops among channels and broadcasts its identity
// according to a strategy. Hopping is either uniformly random or a
// modular-clock sequence ch = (rate·t + phase) mod c, the classic
// deterministic rendezvous pattern.
type HopBroadcaster struct {
	env      Env
	strategy HopStrategy
	lgDelta  int
	modular  bool
	rate     int
	phase    int
	slot     int64
	maxSlots int64
}

var _ radio.Protocol = (*HopBroadcaster)(nil)

// NewHopBroadcaster returns a hopping broadcaster running for maxSlots
// slots. If modular is true the hop sequence is the modular clock with
// the given rate and phase (rate should be coprime with c to visit
// every channel).
func NewHopBroadcaster(p Params, env Env, strategy HopStrategy, modular bool, rate, phase int, maxSlots int64) (*HopBroadcaster, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	if maxSlots < 1 {
		return nil, fmt.Errorf("core: maxSlots must be >= 1, got %d", maxSlots)
	}
	switch strategy {
	case HopAlways, HopCoin, HopBackoff:
	default:
		return nil, fmt.Errorf("core: unknown hop strategy %d", strategy)
	}
	if modular && rate < 1 {
		return nil, fmt.Errorf("core: modular rate must be >= 1, got %d", rate)
	}
	return &HopBroadcaster{
		env:      env,
		strategy: strategy,
		lgDelta:  p.LgDelta(),
		modular:  modular,
		rate:     rate,
		phase:    phase,
		maxSlots: maxSlots,
	}, nil
}

// Act implements radio.Protocol.
func (h *HopBroadcaster) Act(_ int64) radio.Action {
	var ch int
	if h.modular {
		ch = (h.rate*int(h.slot%int64(h.env.C*h.env.C)) + h.phase) % h.env.C
	} else {
		ch = h.env.Rand.Intn(h.env.C)
	}
	transmit := false
	switch h.strategy {
	case HopAlways:
		transmit = true
	case HopCoin:
		transmit = h.env.Rand.Bool()
	case HopBackoff:
		level := int(h.slot) % h.lgDelta
		prob := float64(int64(1)<<uint(level)) / float64(int64(1)<<uint(h.lgDelta))
		transmit = h.env.Rand.Bernoulli(prob)
	}
	if transmit {
		return radio.Action{Kind: radio.Broadcast, Ch: ch}
	}
	return radio.Action{Kind: radio.Idle, Ch: ch}
}

// Observe implements radio.Protocol.
func (h *HopBroadcaster) Observe(_ int64, _ radio.Delivery) { h.slot++ }

// Done implements radio.Protocol.
func (h *HopBroadcaster) Done() bool { return h.slot >= h.maxSlots }

// ListenRecorder hops uniformly and records every identity heard —
// the measurement side of the rendezvous experiments.
type ListenRecorder struct {
	env      Env
	slot     int64
	maxSlots int64
	heard    map[radio.NodeID]int64
}

var _ radio.Protocol = (*ListenRecorder)(nil)

// NewListenRecorder returns a recorder running for maxSlots slots.
func NewListenRecorder(p Params, env Env, maxSlots int64) (*ListenRecorder, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	if maxSlots < 1 {
		return nil, fmt.Errorf("core: maxSlots must be >= 1, got %d", maxSlots)
	}
	return &ListenRecorder{env: env, maxSlots: maxSlots, heard: make(map[radio.NodeID]int64)}, nil
}

// Act implements radio.Protocol.
func (l *ListenRecorder) Act(_ int64) radio.Action {
	return radio.Action{Kind: radio.Listen, Ch: l.env.Rand.Intn(l.env.C)}
}

// Observe implements radio.Protocol.
func (l *ListenRecorder) Observe(_ int64, d radio.Delivery) {
	if d.From >= 0 {
		if _, ok := l.heard[d.From]; !ok {
			l.heard[d.From] = l.slot
		}
	}
	l.slot++
}

// Done implements radio.Protocol.
func (l *ListenRecorder) Done() bool { return l.slot >= l.maxSlots }

// HeardCount returns the number of distinct identities heard.
func (l *ListenRecorder) HeardCount() int { return len(l.heard) }

// FirstHeard returns when id was first heard, or -1.
func (l *ListenRecorder) FirstHeard(id radio.NodeID) int64 {
	if s, ok := l.heard[id]; ok {
		return s
	}
	return -1
}

// LastFirstHeard returns the latest first-heard slot across all heard
// identities (the time the listener completed its census), or -1 if
// nothing was heard.
func (l *ListenRecorder) LastFirstHeard() int64 {
	last := int64(-1)
	for _, s := range l.heard {
		if s > last {
			last = s
		}
	}
	return last
}
