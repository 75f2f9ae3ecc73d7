package spectrum

import (
	"runtime"
	"sync"
	"testing"
)

// TestScheduleDrawsOnFirstRead: construction validates and draws
// nothing, out-of-range reads leave the schedule undrawn, the first
// in-range read draws every channel into one allocation, and later
// reads allocate nothing. A slide back to an eager fill fails the
// first check: the mobile-sized bitmap alone is ~2.7 MiB.
func TestScheduleDrawsOnFirstRead(t *testing.T) {
	var before, built, read runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPoisson(mobileChannels, mobileHorizon, 0.012, 25, HoldGeometric, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Jammed(-1, 0) || p.Jammed(mobileHorizon, 0) || p.Jammed(0, -1) || p.Jammed(0, mobileChannels) {
		t.Error("out-of-range read reported jammed")
	}
	runtime.ReadMemStats(&built)
	if got := built.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("construction and out-of-range reads allocated %d bytes, want < 64 KiB", got)
	}
	p.Jammed(0, 0)
	runtime.ReadMemStats(&read)
	if got, bitmap := read.TotalAlloc-built.TotalAlloc, uint64(mobileChannels*(mobileHorizon+63)/64*8); got < bitmap {
		t.Errorf("first read allocated %d bytes, want the %d-byte bitmap", got, bitmap)
	}
	if avg := testing.AllocsPerRun(100, func() { p.Jammed(mobileHorizon-1, mobileChannels-1) }); avg != 0 {
		t.Errorf("later reads allocate %.1f times each, want 0", avg)
	}

	// The fill's allocation count does not depend on the size, so a
	// small schedule counts it; averaging over runs keeps allocations
	// of the runtime's own goroutines out of the count.
	build := func() *Poisson {
		p, err := NewPoisson(12, 5000, 0.012, 25, HoldGeometric, 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	constructs := testing.AllocsPerRun(20, func() { build() })
	fills := testing.AllocsPerRun(20, func() { build().Jammed(0, 0) })
	if fills-constructs != 1 {
		t.Errorf("first read makes %.0f allocations, want 1 (the bitmap)", fills-constructs)
	}
}

// TestScheduleConcurrentFirstRead: eight goroutines make the first read
// of a fresh schedule at once. Every one must wait for the single fill
// and answer exactly like a twin read on one goroutine.
func TestScheduleConcurrentFirstRead(t *testing.T) {
	const channels, horizon, readers = 12, 5000, 8
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
			twin := build()
			want := make([]bool, channels*horizon)
			for i := range want {
				want[i] = twin.Jammed(int64(i%horizon), int32(i/horizon))
			}
			j := build()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					<-start
					// Each reader starts at its own offset, so the
					// first reads hit different words.
					for k := range want {
						i := (k + r*len(want)/readers) % len(want)
						if got := j.Jammed(int64(i%horizon), int32(i/horizon)); got != want[i] {
							t.Errorf("reader %d: Jammed(%d, %d) = %v, twin read %v", r, i%horizon, i/horizon, got, want[i])
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
