package spectrum

import (
	"runtime"
	"sync"
	"testing"
)

// drawnBlocks returns how many blocks s has published.
func drawnBlocks(s *schedule) int {
	if p := s.drawn.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// TestScheduleDrawsOnlyWhatIsRead: construction and out-of-range reads
// draw nothing, a read at slot s draws only the blocks through s, reads
// inside the drawn prefix allocate nothing, and a read of the last slot
// draws the rest. A slide back to drawing the whole bitmap on the first
// read fails the second check: the mobile-sized bitmap alone is
// ~2.7 MiB, one of its blocks 65 KiB.
func TestScheduleDrawsOnlyWhatIsRead(t *testing.T) {
	const blockBytes = mobileChannels * blockWords * 8
	allocated := func(read func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var p *Poisson
	if got := allocated(func() {
		var err error
		if p, err = NewPoisson(mobileChannels, mobileHorizon, 0.012, 25, HoldGeometric, 7); err != nil {
			t.Fatal(err)
		}
		if p.Jammed(-1, 0) || p.Jammed(mobileHorizon, 0) || p.Jammed(0, -1) || p.Jammed(0, mobileChannels) {
			t.Error("out-of-range read reported jammed")
		}
	}); got >= blockBytes || drawnBlocks(&p.schedule) != 0 {
		t.Errorf("construction and out-of-range reads allocated %d bytes and drew %d blocks, want < %d bytes and none", got, drawnBlocks(&p.schedule), blockBytes)
	}
	if got := allocated(func() { p.Jammed(0, 0) }); got < blockBytes || got >= 128<<10 || drawnBlocks(&p.schedule) != 1 {
		t.Errorf("a read at slot 0 allocated %d bytes and drew %d blocks, want one %d-byte block, < 128 KiB", got, drawnBlocks(&p.schedule), blockBytes)
	}
	const slot = 5*blockSlots + 7
	if got := allocated(func() { p.Jammed(slot, 3) }); got < 5*blockBytes || got >= 6*blockBytes || drawnBlocks(&p.schedule) != 6 {
		t.Errorf("a read at slot %d allocated %d bytes and drew through block %d, want blocks 1–5 (%d bytes)", slot, got, drawnBlocks(&p.schedule)-1, 5*blockBytes)
	}
	if avg := testing.AllocsPerRun(100, func() {
		p.Jammed(0, 0)
		p.Jammed(slot, mobileChannels-1)
		p.Jammed(6*blockSlots-1, 0)
	}); avg != 0 {
		t.Errorf("reads inside the drawn prefix allocate %.1f times, want 0", avg)
	}
	// The index grows with the prefix: slot 0 of the longest schedule
	// costs one block too, not an index over 16 Ki blocks.
	m, err := NewMarkov(mobileChannels, maxHorizon, 0.05, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocated(func() { m.Jammed(0, 0) }); got >= 128<<10 {
		t.Errorf("a read at slot 0 of a %d-slot schedule allocated %d bytes, want < 128 KiB", maxHorizon, got)
	}
	const blocks = (mobileHorizon + blockSlots - 1) / blockSlots
	if got := allocated(func() { p.Jammed(mobileHorizon-1, mobileChannels-1) }); got < (blocks-6)*blockBytes || drawnBlocks(&p.schedule) != blocks {
		t.Errorf("a read of the last slot allocated %d bytes and drew %d of %d blocks, want all", got, drawnBlocks(&p.schedule), blocks)
	}

	// One draw makes a fixed number of allocations however many blocks
	// it draws: the cursors (first draw only), the blocks' words, the
	// grown index and its published header. Averaging over runs keeps
	// allocations of the runtime's own goroutines out of the count.
	build := func() *Poisson {
		p, err := NewPoisson(12, 9*blockSlots, 0.012, 25, HoldGeometric, 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	constructs := testing.AllocsPerRun(20, func() { build() })
	for _, read := range []int64{0, 9*blockSlots - 1} {
		if draws := testing.AllocsPerRun(20, func() { build().Jammed(read, 0) }) - constructs; draws > 4 {
			t.Errorf("a first read at slot %d makes %.0f allocations, want at most 4", read, draws)
		}
	}
}

// TestScheduleConcurrentFirstRead: eight goroutines read a fresh
// schedule at once, each starting in its own undrawn block of an
// eight-block horizon, so draws race for the lock while readers of
// published blocks go on without it. Every answer must equal a twin
// read on one goroutine.
func TestScheduleConcurrentFirstRead(t *testing.T) {
	const channels, horizon, readers = 12, 8*blockSlots + 100, 8
	builds := map[string]func() Jammer{
		"markov": func() Jammer {
			m, err := NewMarkov(channels, horizon, 0.05, 0.15, 21)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"poisson": func() Jammer {
			p, err := NewPoisson(channels, horizon, 0.012, 25, HoldGeometric, 21)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			// want is slot-major: entry i is slot i/channels, channel
			// i%channels, so reader r starts in block r.
			twin := build()
			want := make([]bool, channels*horizon)
			for i := range want {
				want[i] = twin.Jammed(int64(i/channels), int32(i%channels))
			}
			j := build()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					<-start
					for k := range want {
						i := (k + r*len(want)/readers) % len(want)
						if got := j.Jammed(int64(i/channels), int32(i%channels)); got != want[i] {
							t.Errorf("reader %d: Jammed(%d, %d) = %v, twin read %v", r, i/channels, i%channels, got, want[i])
							return
						}
					}
				}(r)
			}
			close(start)
			wg.Wait()
		})
	}
}
