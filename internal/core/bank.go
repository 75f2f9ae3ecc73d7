package core

import "crn/internal/radio"

// This file implements the radio.RangeProtocol ABI for the hot core
// protocols: a "bank" fuses the per-node machines of one run so the
// engine dispatches Act/Observe over whole node ranges with a single
// call instead of two interface calls per node per slot. Each bank
// loops over its nodes with direct (devirtualized) concrete calls into
// the very same per-node state machines the fallback path steps, and
// the observe side feeds the protocols' unpacked observeOutcome
// internals — so both dispatch modes run identical code on identical
// state and per-node rng draw order is untouched: byte-identity holds
// by construction, and the equivalence suites pin it.
//
// Banks hold no mutable bank-wide state, only the nodes slice, and
// each loop iteration touches node u's state alone, so a range call
// behaves exactly like the per-node calls in ascending order.
//
// Attachment is explicit and happens at construction sites
// (NewSeekRun, CGCAST's dissemination, RunFloodCtx, tests): the bank
// back-pointer makes every member protocol report the bank via
// RangeBank, which radio's detectRangeBank verifies per run.

// SeekBank fuses the CSEEK/CKSEEK machines of one run for range
// dispatch (discovery, and CGCAST's exchange stages). NewSeekRun and
// NewCKSeekRun attach one to the machines they build.
type SeekBank struct{ nodes []*CSeek }

var _ radio.RangeProtocol = (*SeekBank)(nil)

// NewSeekBank builds a bank over the per-node machines and attaches
// itself to each of them.
func NewSeekBank(nodes []*CSeek) *SeekBank {
	b := &SeekBank{nodes: nodes}
	for i, s := range nodes {
		s.bank = b
		s.bankIdx = i
	}
	return b
}

// ActRange implements radio.RangeProtocol.
func (b *SeekBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		acts[u] = nodes[u].Act(slot)
	}
}

// ObserveRange implements radio.RangeProtocol.
func (b *SeekBank) ObserveRange(_ int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		d := deliveries[u]
		nodes[u].observeOutcome(d.From >= 0, d.From)
	}
}

// RangeBank implements radio.RangeNode.
func (s *CSeek) RangeBank() (radio.RangeProtocol, int) {
	if s.bank == nil {
		return nil, 0
	}
	return s.bank, s.bankIdx
}

// dissemBank fuses one dissemination run's stage-5 protocols.
type dissemBank struct{ nodes []*dissemProto }

var _ radio.RangeProtocol = (*dissemBank)(nil)

func newDissemBank(nodes []*dissemProto) *dissemBank {
	b := &dissemBank{nodes: nodes}
	for i, dp := range nodes {
		dp.bank = b
		dp.bankIdx = i
	}
	return b
}

// ActRange implements radio.RangeProtocol.
func (b *dissemBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		acts[u] = nodes[u].Act(slot)
	}
}

// ObserveRange implements radio.RangeProtocol.
func (b *dissemBank) ObserveRange(_ int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		d := deliveries[u]
		nodes[u].observeOutcome(d.From >= 0, d.Data)
	}
}

// RangeBank implements radio.RangeNode.
func (dp *dissemProto) RangeBank() (radio.RangeProtocol, int) {
	if dp.bank == nil {
		return nil, 0
	}
	return dp.bank, dp.bankIdx
}

// FloodBank fuses the flooding baseline's per-node machines.
type FloodBank struct{ nodes []*Flood }

var _ radio.RangeProtocol = (*FloodBank)(nil)

// NewFloodBank builds a bank over the per-node machines and attaches
// itself to each of them.
func NewFloodBank(nodes []*Flood) *FloodBank {
	b := &FloodBank{nodes: nodes}
	for i, f := range nodes {
		f.bank = b
		f.bankIdx = i
	}
	return b
}

// ActRange implements radio.RangeProtocol.
func (b *FloodBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		acts[u] = nodes[u].Act(slot)
	}
}

// ObserveRange implements radio.RangeProtocol.
func (b *FloodBank) ObserveRange(_ int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		d := deliveries[u]
		nodes[u].observeOutcome(d.From >= 0, d.Data)
	}
}

// RangeBank implements radio.RangeNode.
func (f *Flood) RangeBank() (radio.RangeProtocol, int) {
	if f.bank == nil {
		return nil, 0
	}
	return f.bank, f.bankIdx
}

// CountBank fuses a heterogeneous COUNT node set — listeners and
// broadcasters — for range dispatch (the Lemma 1 harnesses).
type CountBank struct {
	listens []*CountListen // listens[u] or bcasts[u] is set, not both
	bcasts  []*CountBroadcast
}

var _ radio.RangeProtocol = (*CountBank)(nil)

// NewCountBank builds a bank over a protocol set of CountListen and
// CountBroadcast nodes, attaching itself to each; any other protocol
// type opts the whole set out (returns nil).
func NewCountBank(protos []radio.Protocol) *CountBank {
	b := &CountBank{
		listens: make([]*CountListen, len(protos)),
		bcasts:  make([]*CountBroadcast, len(protos)),
	}
	for i, p := range protos {
		switch c := p.(type) {
		case *CountListen:
			b.listens[i] = c
		case *CountBroadcast:
			b.bcasts[i] = c
		default:
			return nil
		}
	}
	for i := range protos {
		if c := b.listens[i]; c != nil {
			c.bank = b
			c.bankIdx = i
		} else {
			c := b.bcasts[i]
			c.bank = b
			c.bankIdx = i
		}
	}
	return b
}

// ActRange implements radio.RangeProtocol.
func (b *CountBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	for u := lo; u < hi; u++ {
		if c := b.listens[u]; c != nil {
			acts[u] = c.Act(slot)
		} else {
			acts[u] = b.bcasts[u].Act(slot)
		}
	}
}

// ObserveRange implements radio.RangeProtocol.
func (b *CountBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	for u := lo; u < hi; u++ {
		if c := b.listens[u]; c != nil {
			d := deliveries[u]
			c.observeOutcome(d.From >= 0, d.From)
		} else {
			b.bcasts[u].Observe(slot, nil)
		}
	}
}

// RangeBank implements radio.RangeNode.
func (c *CountListen) RangeBank() (radio.RangeProtocol, int) {
	if c.bank == nil {
		return nil, 0
	}
	return c.bank, c.bankIdx
}

// RangeBank implements radio.RangeNode.
func (c *CountBroadcast) RangeBank() (radio.RangeProtocol, int) {
	if c.bank == nil {
		return nil, 0
	}
	return c.bank, c.bankIdx
}
