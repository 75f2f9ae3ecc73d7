package crn

import (
	"context"
	"testing"
)

// TestBroadcastSessionReuse is the amortization property: one setup
// serves many broadcasts, from different sources, each only paying the
// dissemination schedule.
func TestBroadcastSessionReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(Chain), WithNodes(16), WithChannels(4, 2, 0), WithSeed(51))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.NewBroadcastSession(52)
	if err != nil {
		t.Fatal(err)
	}
	if bs.SetupSlots() <= 0 {
		t.Fatalf("SetupSlots = %d", bs.SetupSlots())
	}
	if bs.EdgesColored() == 0 {
		t.Fatal("no edges colored")
	}

	var firstSchedule int64
	for i, source := range []int{0, 7, 15} {
		res, err := bs.Broadcast(source, i, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Errorf("broadcast %d from %d left nodes uninformed", i, source)
		}
		if i == 0 {
			firstSchedule = res.ScheduleSlots
		} else if res.ScheduleSlots != firstSchedule {
			t.Errorf("schedule changed between broadcasts: %d vs %d", res.ScheduleSlots, firstSchedule)
		}
		if res.AllInformedAtSlot < 0 || res.AllInformedAtSlot > res.ScheduleSlots {
			t.Errorf("AllInformedAtSlot = %d outside schedule", res.AllInformedAtSlot)
		}
	}
}

// TestLocalBroadcast: one dissemination phase reaches exactly the
// source's neighborhood on a path (and not the far end).
func TestLocalBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := New(WithTopology(Path), WithNodes(8), WithChannels(3, 2, 0), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.NewBroadcastSession(62)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bs.LocalBroadcast(0, "hi", 63)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("source's neighborhood not informed by local broadcast")
	}
	// A single phase cannot cross the 7-hop path.
	if res.AllInformedAtSlot != -1 {
		t.Errorf("AllInformedAtSlot = %d; a 1-phase broadcast cannot inform a D=7 path", res.AllInformedAtSlot)
	}
	if res.ScheduleSlots <= 0 {
		t.Errorf("ScheduleSlots = %d", res.ScheduleSlots)
	}
}

func TestBroadcastSessionSourceValidation(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(6), WithChannels(3, 2, 0), WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.NewBroadcastSession(54)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Broadcast(-1, "x", 1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := bs.Broadcast(6, "x", 1); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestSessionMatchesOneShot: GlobalBroadcast (one-shot) and session setup +
// one dissemination must agree on the slot accounting.
func TestSessionMatchesOneShot(t *testing.T) {
	s, err := New(WithTopology(Path), WithNodes(8), WithChannels(3, 2, 0), WithSeed(55))
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := GlobalBroadcast(0, "m").Run(context.Background(), s, 56)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.NewBroadcastSession(56)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bs.Broadcast(0, "m", 57)
	if err != nil {
		t.Fatal(err)
	}
	if bs.SetupSlots() != oneShot.Broadcast.SetupSlots {
		t.Errorf("setup slots differ: session %d vs one-shot %d", bs.SetupSlots(), oneShot.Broadcast.SetupSlots)
	}
	if res.ScheduleSlots != oneShot.Broadcast.DissemScheduleSlots {
		t.Errorf("dissemination slots differ: session %d vs one-shot %d",
			res.ScheduleSlots, oneShot.Broadcast.DissemScheduleSlots)
	}
}
