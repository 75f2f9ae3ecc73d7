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
// costs a fresh Θ~(c²/k) rendezvous, with no schedule reuse. Each
// machine is one node of a floodRun, which builds them.
type Flood struct {
	run      *floodRun
	rand     rng.Source
	slot     int64
	u        int32 // the node's index: its bank slot
	informed bool
}

var _ radio.Protocol = (*Flood)(nil)

// floodRun is the state of one flooding run: every node's machine in
// one slice, and what the machines share, held once. It is also their
// bank for range dispatch (see bank.go).
type floodRun struct {
	nodes  []Flood
	protos []radio.Protocol // &nodes[u], the engine's protocol set
	c      int              // channels a node hops among
	// total is the schedule budget, Tuning.NaiveSlots·(c²/k)·D·lg n
	// slots; RunFloodCtx stops the run once every node is informed.
	total int64
}

// newFloodRun builds the n machines of one flooding run over d hops in
// one pass, with p normalized: only source starts informed, and node u
// draws from rng.New(seed).Split(u).
func newFloodRun(p Params, n, d int, source radio.NodeID, seed uint64) *floodRun {
	r := &floodRun{
		nodes:  make([]Flood, n),
		protos: make([]radio.Protocol, n),
		c:      p.C,
		total:  int64(scaledSteps(p.Tuning.NaiveSlots, ceilDiv(p.C*p.C, p.K)*d, p.LgN())),
	}
	var master rng.Source
	master.Reseed(seed)
	for u := range r.nodes {
		r.nodes[u] = Flood{
			run:      r,
			rand:     master.SplitValue(uint64(u)),
			u:        int32(u),
			informed: radio.NodeID(u) == source,
		}
		r.protos[u] = &r.nodes[u]
	}
	return r
}

// Act implements radio.Protocol.
func (f *Flood) Act(_ int64) radio.Action {
	ch := f.rand.Intn(f.run.c)
	if !f.informed {
		return radio.Action{Kind: radio.Listen, Ch: ch}
	}
	// Informed nodes broadcast with probability 1/2: the paper's naive
	// strategy has no contention estimate to do better with.
	if f.rand.Bool() {
		return radio.Action{Kind: radio.Broadcast, Ch: ch}
	}
	return radio.Action{Kind: radio.Idle, Ch: ch}
}

// Observe implements radio.Protocol, for both dispatch modes (the
// floodRun's ObserveRange calls it too). Only uninformed nodes listen
// and only informed nodes broadcast, so a delivery informs the node.
func (f *Flood) Observe(_ int64, d radio.Delivery) {
	if d.From >= 0 {
		f.informed = true
	}
	f.slot++
}

// Done implements radio.Protocol.
func (f *Flood) Done() bool { return f.slot >= f.run.total }

// MinDoneSlots implements radio.FixedSchedule: Done fires exactly at
// the schedule budget (a node keeps flooding even once informed).
func (f *Flood) MinDoneSlots() int64 { return f.run.total }

// RunFloodCtx executes the flooding baseline from source until every
// node is informed or the budget runs out, polling ctx throughout the
// run. ScheduleSlots is the budget, and AllInformedAt the slot after
// which every node held the message (-1 if the budget ran out first).
func RunFloodCtx(ctx context.Context, nw *radio.Network, p Params, d int, source radio.NodeID, seed uint64) (*DissemResult, error) {
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
	if d < 1 {
		return nil, fmt.Errorf("core: D must be >= 1, got %d", d)
	}
	run := newFloodRun(p, n, d, source, seed)
	e, err := radio.NewEngine(nw, run.protos)
	if err != nil {
		return nil, err
	}
	defer e.Release()
	var doneAt int64 = -1
	st, err := e.RunUntilCtx(ctx, run.total+1, func(slot int64) bool {
		for u := range run.nodes {
			if !run.nodes[u].informed {
				return false
			}
		}
		doneAt = slot
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &DissemResult{
		ScheduleSlots: run.total,
		AllInformedAt: doneAt,
		AllInformed:   true,
		Informed:      make([]bool, n),
		Radio:         st,
	}
	for u := range run.nodes {
		res.Informed[u] = run.nodes[u].informed
		if !run.nodes[u].informed {
			res.AllInformed = false
		}
	}
	return res, nil
}
