// Package spectrum models primary-user activity — the licensed
// transmitters whose presence is the reason cognitive radio networks
// exist (Section 1: secondary users exploit idle spectrum in licensed
// bands and must vacate when primary users appear).
//
// A Jammer answers, per (slot, global channel), whether a primary user
// occupies the channel. The radio engine treats occupied channels as
// unusable: frames broadcast there are lost and listeners hear only
// silence, matching the "protect the primary user, sense before use"
// regime of IEEE 802.22-style whitespace systems.
package spectrum

import (
	"fmt"
	"math"

	"crn/internal/rng"
)

// Jammer reports primary-user occupancy. Implementations must be
// deterministic: either pure functions of (slot, channel) like
// Periodic, Markov and Poisson, or deterministic functions of the
// activity the engine reported so far like ReactiveAdversary. A
// stateless Jammer must also be safe for concurrent readers, because
// sweep workers share one instance across runs on different
// goroutines; stateful models implement RunScoped instead, so each run
// gets its own instance.
type Jammer interface {
	// Jammed reports whether the given global channel is occupied by a
	// primary user in the given slot.
	Jammed(slot int64, ch int32) bool
}

// None is the zero Jammer: no primary users.
type None struct{}

// Jammed implements Jammer.
func (None) Jammed(int64, int32) bool { return false }

// Periodic models duty-cycled primary users: channel ch is occupied
// during the first OnSlots of every Period, shifted per channel so the
// network never loses all channels at once.
type Periodic struct {
	// Period is the cycle length in slots (> 0).
	Period int64
	// OnSlots is how many slots per cycle the primary user occupies
	// (0 ≤ OnSlots ≤ Period).
	OnSlots int64
	// ChannelStride staggers the phase by ChannelStride·ch slots.
	ChannelStride int64
	// Channels restricts jamming to the given global channels
	// (nil means every channel has a primary user).
	Channels []int32

	channelSet map[int32]bool
}

// NewPeriodic validates and returns a periodic jammer.
func NewPeriodic(period, onSlots, stride int64, channels []int32) (*Periodic, error) {
	if period <= 0 {
		return nil, fmt.Errorf("spectrum: period must be > 0, got %d", period)
	}
	if onSlots < 0 || onSlots > period {
		return nil, fmt.Errorf("spectrum: onSlots must be in [0,%d], got %d", period, onSlots)
	}
	p := &Periodic{Period: period, OnSlots: onSlots, ChannelStride: stride, Channels: channels}
	if channels != nil {
		p.channelSet = make(map[int32]bool, len(channels))
		for _, ch := range channels {
			p.channelSet[ch] = true
		}
	}
	return p, nil
}

// Jammed implements Jammer.
func (p *Periodic) Jammed(slot int64, ch int32) bool {
	if p.channelSet != nil && !p.channelSet[ch] {
		return false
	}
	phase := (slot + p.ChannelStride*int64(ch)) % p.Period
	if phase < 0 {
		phase += p.Period
	}
	return phase < p.OnSlots
}

// Markov models bursty primary users: each channel flips between idle
// and occupied with per-slot transition probabilities, starting idle.
// A channel's trajectory is a deterministic function of (seed,
// channel), drawn as far as it is read (see schedule). Beyond the
// horizon channels are reported idle.
type Markov struct {
	schedule
}

// NewMarkov returns a Markov on/off occupancy model for the given
// number of global channels over horizon slots. pBusy is the
// idle→occupied probability per slot, pFree the occupied→idle
// probability. It validates its arguments and draws nothing.
func NewMarkov(channels int, horizon int64, pBusy, pFree float64, seed uint64) (*Markov, error) {
	if channels < 1 {
		return nil, fmt.Errorf("spectrum: need at least one channel, got %d", channels)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("spectrum: horizon must be >= 1, got %d", horizon)
	}
	if math.IsNaN(pBusy) || math.IsNaN(pFree) || pBusy < 0 || pBusy > 1 || pFree < 0 || pFree > 1 {
		return nil, fmt.Errorf("spectrum: probabilities must be in [0,1], got %v and %v", pBusy, pFree)
	}
	if horizon > maxHorizon {
		return nil, fmt.Errorf("spectrum: horizon %d exceeds the %d-slot limit", horizon, maxHorizon)
	}
	toBusy, toFree := rng.NewCoin(pBusy), rng.NewCoin(pFree)
	return &Markov{newSchedule(channels, horizon, seed, func(row []uint64, lo, hi int64, c *cursor) {
		drawMarkov(row, hi-lo, toBusy, toFree, c)
	})}, nil
}

// drawMarkov draws the next n slots of one channel's on/off chain
// into row, bit 0 being the first, resuming from c. Each slot the
// chain tosses the coin of its current state and flips on heads, so an
// idle run ends at the first toBusy heads, which starts a busy run in
// that slot, and a busy run ends at the first toFree heads, whose slot
// is idle again. A busy run still open after n slots carries into the
// next block through c.busy.
func drawMarkov(row []uint64, n int64, toBusy, toFree rng.Coin, c *cursor) {
	st, slot := c.st, int64(0)
	var heads bool
	if c.busy {
		for ; slot < n; slot++ {
			if heads, st = toFree.Flip(st); heads {
				break
			}
		}
		if slot > 0 {
			setRun(row, 0, slot)
		}
		slot++
	}
	for ; slot < n; slot++ {
		if heads, st = toBusy.Flip(st); !heads {
			continue
		}
		start := slot
		for slot++; slot < n; slot++ {
			if heads, st = toFree.Flip(st); heads {
				break
			}
		}
		setRun(row, start, slot)
	}
	// A busy run still open after n slots leaves slot one past n.
	c.st, c.busy = st, slot > n
}

// OccupancyFraction returns the fraction of (slot, channel) pairs the
// jammer occupies over the given window — a workload descriptor for
// experiment tables.
func OccupancyFraction(j Jammer, channels int, window int64) float64 {
	if channels < 1 || window < 1 {
		return 0
	}
	occupied := int64(0)
	for ch := 0; ch < channels; ch++ {
		for s := int64(0); s < window; s++ {
			if j.Jammed(s, int32(ch)) {
				occupied++
			}
		}
	}
	return float64(occupied) / float64(int64(channels)*window)
}
