package core

import "crn/internal/radio"

// This file implements the radio.RangeProtocol ABI for the hot core
// protocols: a "bank" fuses the per-node machines of one run so the
// engine dispatches Act/Observe over whole node ranges with a single
// call instead of two interface calls per node per slot. Each bank
// loops over its nodes with direct (devirtualized) concrete calls into
// the very same Act and Observe state machines the fallback path
// steps, handing each node its radio.Delivery — so both dispatch modes
// run identical code on identical state and per-node rng draw order is
// untouched: byte-identity holds by construction, and the equivalence
// suites pin it.
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
func (b *SeekBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		nodes[u].Observe(slot, deliveries[u])
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
func (b *dissemBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		nodes[u].Observe(slot, deliveries[u])
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
func (b *FloodBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := b.nodes
	for u := lo; u < hi; u++ {
		nodes[u].Observe(slot, deliveries[u])
	}
}

// RangeBank implements radio.RangeNode.
func (f *Flood) RangeBank() (radio.RangeProtocol, int) {
	if f.bank == nil {
		return nil, 0
	}
	return f.bank, f.bankIdx
}
