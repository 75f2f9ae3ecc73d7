package core

import (
	"sync"

	"crn/internal/radio"
)

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
// Banks hold no mutable bank-wide state (what the dissemination and
// flooding runs share is read-only), and each loop iteration touches
// node u's state alone, so a range call behaves exactly like the
// per-node calls in ascending order.
//
// A CSEEK bank is attached explicitly at construction sites
// (NewSeekRun, tests): the bank back-pointer makes every member
// protocol report the bank via RangeBank, which radio's
// detectRangeBank verifies per run. A dissemination or flooding
// machine's run is its bank, so newDissemRun and newFloodRun build
// them attached.

// SeekBank fuses the CSEEK/CKSEEK machines of one run for range
// dispatch (discovery, and CGCAST's exchange stages). NewSeekRun and
// NewCKSeekRun build the machines of a run over a bank from seekPool,
// which then holds their storage until Release.
type SeekBank struct {
	nodes []*CSeek
	// seekStore is the machines' storage on a bank from seekPool, and
	// pooled reports that the bank is out of seekPool and not yet
	// released.
	seekStore
	pooled bool
}

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

// seekPool holds the banks of released runs, so a run's machines
// reuse the storage of an earlier run.
var seekPool = sync.Pool{New: func() any { return new(SeekBank) }}

// Nodes returns the bank's machines, node u at index u.
func (b *SeekBank) Nodes() []*CSeek { return b.nodes }

// Release hands the storage of a run's machines back to seekPool once
// the run's outcome has been read: the machines, and every slice their
// accessors returned, must not be used again. It does nothing on a
// bank from NewSeekBank, whose machines the caller owns, or on a bank
// already released.
func (b *SeekBank) Release() {
	if !b.pooled {
		return
	}
	b.pooled = false
	// Drop what the machines reference beyond the store: the schedule,
	// tables grown past Δ and channel logs.
	clear(b.seeks)
	seekPool.Put(b)
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

var _ radio.RangeProtocol = (*dissemRun)(nil)

// ActRange implements radio.RangeProtocol.
func (r *dissemRun) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	nodes := r.nodes
	for u := lo; u < hi; u++ {
		acts[u] = nodes[u].Act(slot)
	}
}

// ObserveRange implements radio.RangeProtocol.
func (r *dissemRun) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := r.nodes
	for u := lo; u < hi; u++ {
		nodes[u].Observe(slot, deliveries[u])
	}
}

// RangeBank implements radio.RangeNode: a dissemination machine is
// always a member of its run's bank.
func (dp *dissemProto) RangeBank() (radio.RangeProtocol, int) {
	return dp.run, int(dp.u)
}

var _ radio.RangeProtocol = (*floodRun)(nil)

// ActRange implements radio.RangeProtocol.
func (r *floodRun) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	nodes := r.nodes
	for u := lo; u < hi; u++ {
		acts[u] = nodes[u].Act(slot)
	}
}

// ObserveRange implements radio.RangeProtocol.
func (r *floodRun) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	nodes := r.nodes
	for u := lo; u < hi; u++ {
		nodes[u].Observe(slot, deliveries[u])
	}
}

// RangeBank implements radio.RangeNode: a flooding machine is always a
// member of its run's bank.
func (f *Flood) RangeBank() (radio.RangeProtocol, int) {
	return f.run, int(f.u)
}
