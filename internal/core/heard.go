package core

import (
	"slices"

	"crn/internal/radio"
)

// heardTable is the one record of whom a node heard: the identities in
// ascending order, with the slot each was first heard in and a stamp
// naming the step it was last heard in. CSEEK's COUNT listener tells a
// repeat sender from a new one by the stamp, so it keeps no per-step
// set of its own.
//
// The three slices usually start as windows of capacity Δ into arrays
// shared by a whole run (see buildSeeks), large enough for any static
// neighborhood. A node that hears more than Δ identities — possible
// under mobility, which brings non-neighbors into range — outgrows its
// window, and the insert reallocates that node's slices alone.
type heardTable struct {
	ids    []radio.NodeID
	slots  []int64
	stamps []uint32
}

// newHeardTable returns an empty table with room for capacity
// identities, for a node built on its own.
func newHeardTable(capacity int) heardTable {
	return heardTable{
		ids:    make([]radio.NodeID, 0, capacity),
		slots:  make([]int64, 0, capacity),
		stamps: make([]uint32, 0, capacity),
	}
}

// hear records id as heard in slot, during step. It reports whether id
// is new to step: heard for the first time, or first since an earlier
// step. Steps count modulo 2³², so a stamp could pass for the current
// step only 2³² steps after it was written, beyond any schedule.
func (t *heardTable) hear(id radio.NodeID, slot int64, step uint32) bool {
	i, found := slices.BinarySearch(t.ids, id)
	if found {
		if t.stamps[i] == step {
			return false
		}
		t.stamps[i] = step
		return true
	}
	t.ids = slices.Insert(t.ids, i, id)
	t.slots = slices.Insert(t.slots, i, slot)
	t.stamps = slices.Insert(t.stamps, i, step)
	return true
}

// Heard returns the identities heard so far in ascending order, and the
// slot each was first heard in. Both slices are views of the table:
// read them before the node observes again, and do not modify them.
func (t *heardTable) Heard() ([]radio.NodeID, []int64) { return t.ids, t.slots }

// FirstHeard returns the slot id was first heard in, if it was heard.
func (t *heardTable) FirstHeard(id radio.NodeID) (int64, bool) {
	if i, found := slices.BinarySearch(t.ids, id); found {
		return t.slots[i], true
	}
	return 0, false
}

// DiscoveredCount returns the number of distinct identities heard.
func (t *heardTable) DiscoveredCount() int { return len(t.ids) }
