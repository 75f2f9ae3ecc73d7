package core

import (
	"context"
	"fmt"

	"crn/internal/radio"
	"crn/internal/rng"
)

// Flood is the naive global-broadcast baseline from the introduction:
// nodes hop among channels uniformly at random; informed nodes
// broadcast the message (with a back-off coin to soften collisions),
// uninformed nodes listen. Expected time O~((c²/k)·D·…) — every hop
// costs a fresh Θ~(c²/k) rendezvous, with no schedule reuse.
type Flood struct {
	env      Env
	delta    int
	informed bool
	msg      any
	// frame is the pre-boxed dissemMessage carrying msg, refreshed
	// when the node learns the message, so Act never allocates.
	frame any

	slot       int64
	maxSlots   int64
	informedAt int64
	listening  bool

	// bank/bankIdx back-reference the FloodBank (range dispatch).
	bank    *FloodBank
	bankIdx int
}

var _ radio.Protocol = (*Flood)(nil)

// NewFlood returns a flooding node. The schedule budget is
// Tuning.NaiveSlots·(c²/k)·D·lg n slots; harnesses typically stop the
// run early once every node is informed.
func NewFlood(p Params, env Env, d int, informed bool, msg any) (*Flood, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	if d < 1 {
		return nil, fmt.Errorf("core: D must be >= 1, got %d", d)
	}
	return &Flood{
		env:        env,
		delta:      p.Delta,
		informed:   informed,
		msg:        msg,
		frame:      dissemMessage{Body: msg},
		maxSlots:   int64(scaledSteps(p.Tuning.NaiveSlots, ceilDiv(p.C*p.C, p.K)*d, p.LgN())),
		informedAt: -1,
	}, nil
}

// Act implements radio.Protocol.
func (f *Flood) Act(_ int64) radio.Action {
	ch := f.env.Rand.Intn(f.env.C)
	if !f.informed {
		f.listening = true
		return radio.Action{Kind: radio.Listen, Ch: ch}
	}
	f.listening = false
	// Informed nodes broadcast with probability 1/2: the paper's naive
	// strategy has no contention estimate to do better with.
	if f.env.Rand.Bool() {
		return radio.Action{Kind: radio.Broadcast, Ch: ch, Data: f.frame}
	}
	return radio.Action{Kind: radio.Idle, Ch: ch}
}

// Observe implements radio.Protocol, for both dispatch modes (the
// FloodBank calls it too).
func (f *Flood) Observe(_ int64, d radio.Delivery) {
	if f.listening && d.From >= 0 && !f.informed {
		if dm, ok := d.Data.(dissemMessage); ok {
			f.informed = true
			f.informedAt = f.slot
			f.msg = dm.Body
			f.frame = dissemMessage{Body: dm.Body}
		}
	}
	f.slot++
}

// Done implements radio.Protocol.
func (f *Flood) Done() bool { return f.slot >= f.maxSlots }

// Informed reports whether the node holds the message.
func (f *Flood) Informed() bool { return f.informed }

// InformedAt returns the slot the node learned the message, or -1.
func (f *Flood) InformedAt() int64 { return f.informedAt }

// TotalSlots returns the schedule budget.
func (f *Flood) TotalSlots() int64 { return f.maxSlots }

// MinDoneSlots implements radio.FixedSchedule: Done fires exactly at
// the schedule budget (a node keeps flooding even once informed).
func (f *Flood) MinDoneSlots() int64 { return f.maxSlots }

// RunFlood executes the flooding baseline until every node is informed
// or the budget runs out; it returns the slot at which the last node
// became informed (-1 if never) and whether all nodes were informed.
func RunFlood(nw *radio.Network, p Params, d int, source radio.NodeID, msg any, seed uint64) (int64, bool, error) {
	res, err := RunFloodCtx(context.Background(), nw, p, d, source, msg, seed)
	if err != nil {
		return 0, false, err
	}
	return res.AllInformedAt, res.AllInformed, nil
}

// FloodResult reports one flooding run.
type FloodResult struct {
	// ScheduleSlots is the flooding budget in slots.
	ScheduleSlots int64
	// AllInformedAt is the slot at which the last node became informed,
	// or -1 if the budget ran out first.
	AllInformedAt int64
	// AllInformed reports whether every node got the message.
	AllInformed bool
	// Informed[u] reports whether node u held the message at the end.
	Informed []bool
	// Radio holds the engine's counters (deliveries, collisions,
	// jammed listener-slots).
	Radio radio.Stats
}

// RunFloodCtx is RunFlood with cooperative cancellation (ctx is
// polled throughout the run) and a richer result.
func RunFloodCtx(ctx context.Context, nw *radio.Network, p Params, d int, source radio.NodeID, msg any, seed uint64) (*FloodResult, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	n := nw.Graph.N()
	if int(source) < 0 || int(source) >= n {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	master := rng.New(seed)
	floods := make([]*Flood, n)
	protos := make([]radio.Protocol, n)
	for u := 0; u < n; u++ {
		fl, err := NewFlood(p, Env{ID: radio.NodeID(u), C: p.C, Rand: master.Split(uint64(u))}, d, radio.NodeID(u) == source, msg)
		if err != nil {
			return nil, err
		}
		floods[u] = fl
		protos[u] = fl
	}
	NewFloodBank(floods)
	e, err := radio.NewEngine(nw, protos)
	if err != nil {
		return nil, err
	}
	var doneAt int64 = -1
	st, err := e.RunUntilCtx(ctx, floods[0].TotalSlots()+1, func(slot int64) bool {
		for _, fl := range floods {
			if !fl.Informed() {
				return false
			}
		}
		doneAt = slot
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &FloodResult{
		ScheduleSlots: floods[0].TotalSlots(),
		AllInformedAt: doneAt,
		AllInformed:   true,
		Informed:      make([]bool, n),
		Radio:         st,
	}
	for u, fl := range floods {
		res.Informed[u] = fl.Informed()
		if !fl.Informed() {
			res.AllInformed = false
		}
	}
	return res, nil
}
