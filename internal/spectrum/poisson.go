package spectrum

import (
	"fmt"
	"math"

	"crn/internal/rng"
)

// HoldKind selects the holding-time distribution of a Poisson primary
// user: how long a transmission occupies its channel once it arrives.
type HoldKind int

// Holding-time distributions.
const (
	// HoldGeometric draws each holding time from a geometric
	// distribution with the configured mean (memoryless departures —
	// the M/M-style primary of Chaoub & Ibn-Elhaj).
	HoldGeometric HoldKind = iota + 1
	// HoldFixed occupies the channel for exactly ceil(mean) slots per
	// arrival (deterministic service).
	HoldFixed
)

// Poisson models primary users as a discretized Poisson arrival
// process per channel: in every slot an arrival occurs with
// probability 1-exp(-rate), and each arrival holds the channel for a
// geometric or fixed number of slots. Overlapping transmissions merge
// into one busy period. A channel's trajectory is a deterministic
// function of (seed, channel), drawn as far as it is read (see
// schedule). Beyond the horizon channels are reported idle.
type Poisson struct {
	schedule
}

// NewPoisson returns a Poisson on/off occupancy model for the given
// number of global channels over horizon slots. rate is the expected
// number of arrivals per slot (≥ 0); meanHold the mean holding time in
// slots (≥ 1); hold selects the holding distribution (zero value means
// HoldGeometric). It validates its arguments and draws nothing.
func NewPoisson(channels int, horizon int64, rate, meanHold float64, hold HoldKind, seed uint64) (*Poisson, error) {
	if channels < 1 {
		return nil, fmt.Errorf("spectrum: need at least one channel, got %d", channels)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("spectrum: horizon must be >= 1, got %d", horizon)
	}
	if horizon > maxHorizon {
		return nil, fmt.Errorf("spectrum: horizon %d exceeds the %d-slot limit", horizon, maxHorizon)
	}
	if math.IsNaN(rate) || rate < 0 {
		return nil, fmt.Errorf("spectrum: arrival rate must be >= 0, got %v", rate)
	}
	if math.IsNaN(meanHold) || meanHold < 1 {
		return nil, fmt.Errorf("spectrum: mean holding time must be >= 1 slot, got %v", meanHold)
	}
	// fixedHold is HoldFixed's holding time, capped at the horizon;
	// 0 draws each holding time geometrically, keeping the channel one
	// more slot with probability 1 - 1/meanHold.
	var fixedHold int64
	switch hold {
	case HoldGeometric, 0:
	case HoldFixed:
		fixedHold = min(int64(math.Ceil(meanHold)), horizon)
	default:
		return nil, fmt.Errorf("spectrum: unknown holding kind %d", hold)
	}
	arrive, stay := rng.NewCoin(1-math.Exp(-rate)), rng.NewCoin(1-1/meanHold)
	return &Poisson{newSchedule(channels, horizon, seed, func(row []uint64, lo, hi int64, c *cursor) {
		drawPoisson(row, lo, hi, horizon, arrive, stay, fixedHold, c)
	})}, nil
}

// drawPoisson draws one channel's slots [lo, hi) into row, bit 0 being
// slot lo, resuming from c. Every slot tosses the arrival coin; an
// arrival in slot s holds the channel through slot s+h-1, with h
// capped at the horizon so degenerate means cannot spin the loop. A
// hold that outlasts the block carries into the next one through
// c.busyUntil.
func drawPoisson(row []uint64, lo, hi, horizon int64, arrive, stay rng.Coin, fixedHold int64, c *cursor) {
	st, busyUntil := c.st, c.busyUntil
	if busyUntil > lo {
		setRun(row, 0, min(busyUntil, hi)-lo)
	}
	if busyUntil >= horizon {
		return // busy through the horizon: nothing left to toss
	}
	for slot := lo; slot < hi; slot++ {
		var arrived bool
		if arrived, st = arrive.Flip(st); !arrived {
			continue
		}
		h := fixedHold
		if h == 0 {
			h = 1
			for h < horizon {
				var stayed bool
				if stayed, st = stay.Flip(st); !stayed {
					break
				}
				h++
			}
		}
		if end := slot + h; end > busyUntil {
			if from := max(slot, busyUntil); from < hi {
				setRun(row, from-lo, min(end, hi)-lo)
			}
			busyUntil = end
		}
		if busyUntil >= horizon {
			// Busy through the horizon: further draws could only
			// extend busyUntil past slots nobody reads, so stop
			// tossing. The schedule is identical to drawing it out,
			// but the draw stays O(horizon) even for extreme
			// rate/hold parameters.
			break
		}
	}
	c.st, c.busyUntil = st, busyUntil
}
