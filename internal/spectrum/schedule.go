package spectrum

import (
	"sync"
	"sync/atomic"

	"crn/internal/rng"
)

// maxHorizon bounds a schedule's horizon: 64 Mi slots, 8 MiB of bitmap
// per channel. Shared by Markov and Poisson.
const maxHorizon = 1 << 26

// A schedule is drawn in blocks of blockSlots slots: blockWords words
// per channel.
const (
	blockShift = 12
	blockSlots = 1 << blockShift
	blockWords = blockSlots / 64
)

// schedule is the occupancy bitmap Markov and Poisson share, drawn in
// blocks as far as the furthest slot read. Block b holds, for every
// channel in turn, the blockWords words of slots [b·blockSlots,
// (b+1)·blockSlots): bit s%64 of a word is set iff a primary user
// holds the channel in slot s.
//
// Construction only records the parameters. A read inside the drawn
// prefix loads it atomically and tests one word, with no lock. A read
// past it draws the missing blocks under mu, each channel resuming
// from its cursor, so channel ch consumes the seed's rng.Split(ch)
// stream in slot order however the reads arrive, and the bits do not
// depend on who reads first or where.
type schedule struct {
	channels int
	horizon  int64
	seed     uint64
	draw     func(row []uint64, lo, hi int64, c *cursor) // one channel's slots [lo, hi) into row

	// drawn is the published prefix of blocks. It only grows, under
	// mu, and every block in it is complete.
	drawn   atomic.Pointer[[][]uint64]
	mu      sync.Mutex
	cursors []cursor // one per channel; nil until the first draw
}

// cursor is where one channel's draw stopped: its stream, and the
// state a busy run carries into the next block.
type cursor struct {
	st rng.Stream
	// busyUntil (Poisson) is the end of the latest hold: the channel
	// is busy while slot < busyUntil, and through the horizon once
	// busyUntil ≥ horizon.
	busyUntil int64
	// busy (Markov) is the chain's state at the next slot.
	busy bool
}

func newSchedule(channels int, horizon int64, seed uint64, draw func(row []uint64, lo, hi int64, c *cursor)) schedule {
	return schedule{channels: channels, horizon: horizon, seed: seed, draw: draw}
}

// Jammed implements Jammer.
func (s *schedule) Jammed(slot int64, ch int32) bool {
	if slot < 0 || slot >= s.horizon || ch < 0 || int(ch) >= s.channels {
		return false
	}
	b := int(slot >> blockShift)
	var blocks [][]uint64
	if p := s.drawn.Load(); p != nil {
		blocks = *p
	}
	if b >= len(blocks) {
		blocks = s.drawThrough(b)
	}
	return blocks[b][int(ch)*blockWords+int(slot>>6)&(blockWords-1)]>>(slot&63)&1 != 0
}

// drawThrough draws every block up to and including block b, unless a
// concurrent reader already has, and returns the published blocks.
// The new blocks share one allocation and are published together.
func (s *schedule) drawThrough(b int) [][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var blocks [][]uint64
	if p := s.drawn.Load(); p != nil {
		blocks = *p
	}
	if b < len(blocks) {
		return blocks
	}
	if s.cursors == nil {
		s.cursors = make([]cursor, s.channels)
		master := rng.New(s.seed)
		for ch := range s.cursors {
			s.cursors[ch].st = master.SplitStream(uint64(ch))
		}
	}
	if cap(blocks) <= b {
		blocks = append(make([][]uint64, 0, max(b+1, 2*cap(blocks))), blocks...)
	}
	size := s.channels * blockWords
	words := make([]uint64, (b+1-len(blocks))*size)
	for len(blocks) <= b {
		block := words[:size:size]
		words = words[size:]
		lo := int64(len(blocks)) << blockShift
		hi := min(lo+blockSlots, s.horizon)
		for ch := range s.cursors {
			s.draw(block[ch*blockWords:][:blockWords], lo, hi, &s.cursors[ch])
		}
		blocks = append(blocks, block)
	}
	// Appending never writes below the published length, so readers of
	// the old prefix are undisturbed.
	s.drawn.Store(&blocks)
	return blocks
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
