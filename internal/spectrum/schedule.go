package spectrum

import (
	"sync"

	"crn/internal/rng"
)

// maxHorizon bounds a schedule's horizon: 64 Mi slots, 8 MiB of bitmap
// per channel. Shared by Markov and Poisson.
const maxHorizon = 1 << 26

// schedule is the occupancy bitmap Markov and Poisson share: one row of
// ⌈horizon/64⌉ words per channel in a single slice, where bit s%64 of
// word s/64 is set iff a primary user holds the channel in slot s.
// Construction only records the parameters. The first in-range Jammed
// call draws every row, exactly once, row ch from the seed's
// rng.Split(ch) stream; concurrent first readers wait for it, and
// later calls test one word.
type schedule struct {
	channels int
	horizon  int64
	stride   int64 // words per row
	seed     uint64
	drawRow  func(row []uint64, st rng.Stream) // draws one channel

	once  sync.Once
	words []uint64
}

func newSchedule(channels int, horizon int64, seed uint64, drawRow func(row []uint64, st rng.Stream)) schedule {
	return schedule{channels: channels, horizon: horizon, stride: (horizon + 63) / 64, seed: seed, drawRow: drawRow}
}

// Jammed implements Jammer.
func (s *schedule) Jammed(slot int64, ch int32) bool {
	if slot < 0 || slot >= s.horizon || ch < 0 || int(ch) >= s.channels {
		return false
	}
	s.once.Do(s.fill)
	return s.words[int64(ch)*s.stride+slot>>6]>>(slot&63)&1 != 0
}

// fill draws every row into one allocation.
func (s *schedule) fill() {
	words := make([]uint64, int64(s.channels)*s.stride)
	master := rng.New(s.seed)
	for ch := 0; ch < s.channels; ch++ {
		s.drawRow(words[int64(ch)*s.stride:][:s.stride], master.SplitStream(uint64(ch)))
	}
	s.words = words
}

// setRun sets bits [lo, hi) of row, lo < hi, a word at a time.
func setRun(row []uint64, lo, hi int64) {
	first, last := lo>>6, (hi-1)>>6
	head, tail := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-((hi-1)&63))
	if first == last {
		row[first] |= head & tail
		return
	}
	row[first] |= head
	for w := first + 1; w < last; w++ {
		row[w] = ^uint64(0)
	}
	row[last] |= tail
}
