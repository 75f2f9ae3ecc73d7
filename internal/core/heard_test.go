package core

import (
	"fmt"
	"testing"

	"crn/internal/radio"
)

// TestHeardTable: the table keeps identities in ascending order with
// the slot each was first heard in, reports a hearing as new once per
// step, and a window that outgrows its capacity regrows without
// touching the window after it.
func TestHeardTable(t *testing.T) {
	ids := make([]radio.NodeID, 4)
	slots := make([]int64, 4)
	stamps := make([]uint32, 4)
	a := heardTable{ids: ids[0:0:2], slots: slots[0:0:2], stamps: stamps[0:0:2]}
	b := heardTable{ids: ids[2:2:4], slots: slots[2:2:4], stamps: stamps[2:2:4]}
	b.hear(9, 1, 1)

	for i, h := range []struct {
		id    radio.NodeID
		slot  int64
		step  uint32
		fresh bool
	}{
		{5, 10, 1, true},
		{3, 11, 1, true},
		{5, 12, 1, false}, // a repeat within the step
		{5, 20, 2, true},  // new to step 2
		{5, 21, 2, false},
		{7, 22, 2, true}, // a third identity outgrows the window
		{3, 30, 3, true},
	} {
		if got := a.hear(h.id, h.slot, h.step); got != h.fresh {
			t.Errorf("hearing %d (id %d, step %d): fresh = %v, want %v", i, h.id, h.step, got, h.fresh)
		}
	}
	gotIDs, gotSlots := a.Heard()
	if got, want := fmt.Sprint(gotIDs, gotSlots), "[3 5 7] [11 10 22]"; got != want {
		t.Errorf("Heard() = %s, want %s", got, want)
	}
	if slot, ok := a.FirstHeard(5); !ok || slot != 10 {
		t.Errorf("FirstHeard(5) = %d, %v; want 10, true", slot, ok)
	}
	if _, ok := a.FirstHeard(4); ok {
		t.Error("FirstHeard found an identity never heard")
	}
	if a.DiscoveredCount() != 3 {
		t.Errorf("DiscoveredCount = %d, want 3", a.DiscoveredCount())
	}
	if got, want := fmt.Sprint(b.Heard()), "[9] [1]"; got != want {
		t.Errorf("the next window holds %s after the overflow, want %s", got, want)
	}
}
