package spectrum

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinCase builds one stochastic schedule for TestSpectrumSchedulesPinned.
type pinCase struct {
	name     string
	channels int
	horizon  int64
	build    func() (Jammer, error)
	// digest is the SHA-256 prefix of every answer in the probe window;
	// jammed counts the answers that were true.
	digest string
	jammed int64
}

// The mobile variant's size: a 130-channel universe over twice a CSEEK
// schedule (perfbench's dynamic-service workload).
const mobileChannels, mobileHorizon = 130, 175680

func pinCases() []pinCase {
	markov := func(channels int, horizon int64, pBusy, pFree float64, seed uint64) func() (Jammer, error) {
		return func() (Jammer, error) { return NewMarkov(channels, horizon, pBusy, pFree, seed) }
	}
	poisson := func(channels int, horizon int64, rate, hold float64, kind HoldKind, seed uint64) func() (Jammer, error) {
		return func() (Jammer, error) { return NewPoisson(channels, horizon, rate, hold, kind, seed) }
	}
	return []pinCase{
		{"markov-urban-busy-mobile", mobileChannels, mobileHorizon, markov(mobileChannels, mobileHorizon, 0.05, 0.15, 7), "190d2e25174211f5", 5705153},
		{"poisson-bursty-mobile", mobileChannels, mobileHorizon, poisson(mobileChannels, mobileHorizon, 0.012, 25, HoldGeometric, 7), "90ed9fd0cd0c17aa", 5936110},
		{"markov-always-busy", 4, 1000, markov(4, 1000, 1, 0, 3), "7ceb2ab1a1e255be", 4000},
		{"markov-never-busy", 4, 1000, markov(4, 1000, 0, 0.3, 3), "cb92b2277c7e0753", 0},
		{"markov-free-at-once", 4, 1000, markov(4, 1000, 0.2, 1, 3), "d5e291fceede3ca0", 630},
		{"poisson-rate-0", 4, 1000, poisson(4, 1000, 0, 5, HoldGeometric, 3), "cb92b2277c7e0753", 0},
		{"poisson-hold-1", 4, 1000, poisson(4, 1000, 0.2, 1, HoldGeometric, 3), "9d4ce86d0538b926", 702},
		{"poisson-fixed-fractional", 4, 1000, poisson(4, 1000, 0.05, 2.5, HoldFixed, 3), "a7b36a3b4f445852", 518},
		{"poisson-fixed-past-horizon", 4, 1000, poisson(4, 1000, 0.01, 5000, HoldFixed, 3), "dbc1f677e8a9f9d1", 3296},
		{"poisson-busy-through-horizon", 4, 1000, poisson(4, 1000, 2, 300, HoldGeometric, 3), "267793c71daec212", 3999},
		{"markov-horizon-1", 3, 1, markov(3, 1, 0.5, 0.3, 6), "e55af6148178ec45", 3},
		{"markov-horizon-63", 3, 63, markov(3, 63, 0.3, 0.3, 5), "a05cea2f09c26f7a", 83},
		{"markov-horizon-64", 3, 64, markov(3, 64, 0.3, 0.3, 5), "d06f0a1b16405dff", 83},
		{"markov-horizon-65", 3, 65, markov(3, 65, 0.3, 0.3, 5), "8aae2f34d74e1dd3", 84},
		{"poisson-horizon-1", 3, 1, poisson(3, 1, 0.7, 3, HoldGeometric, 6), "e55af6148178ec45", 3},
		{"poisson-horizon-63", 3, 63, poisson(3, 63, 0.2, 3, HoldGeometric, 5), "45af86f9c579200b", 111},
		{"poisson-horizon-64", 3, 64, poisson(3, 64, 0.2, 3, HoldGeometric, 5), "eac8945a1b22269e", 112},
		{"poisson-horizon-65", 3, 65, poisson(3, 65, 0.2, 3, HoldFixed, 5), "c5d682f042471bbe", 98},
		// Horizons around the 4096-slot draw block, and past three.
		{"markov-horizon-4095", 4, 4095, markov(4, 4095, 0.01, 0.02, 5), "0f8ed6f593bd15d4", 5682},
		{"markov-horizon-4096", 4, 4096, markov(4, 4096, 0.01, 0.02, 5), "85af4411767bc02f", 5684},
		{"markov-horizon-4097", 4, 4097, markov(4, 4097, 0.01, 0.02, 5), "f00bb67a00cc529d", 5686},
		{"markov-horizon-3-blocks-17", 4, 3*4096 + 17, markov(4, 3*4096+17, 0.01, 0.02, 5), "469261afdcd7ae5c", 16904},
		{"poisson-horizon-4095", 4, 4095, poisson(4, 4095, 0.01, 40, HoldGeometric, 5), "42d1fb64684924d3", 5225},
		{"poisson-horizon-4096", 4, 4096, poisson(4, 4096, 0.01, 40, HoldGeometric, 5), "62f746ebb5c28fb0", 5225},
		{"poisson-horizon-4097", 4, 4097, poisson(4, 4097, 0.01, 40, HoldGeometric, 5), "fe438daf4bb4c795", 5225},
		{"poisson-horizon-3-blocks-17", 4, 3*4096 + 17, poisson(4, 3*4096+17, 0.01, 40, HoldFixed, 5), "1bf501184d727eb8", 16490},
		// Busy runs that cross block edges, one on each ending exactly
		// on an edge (the seeds were chosen for that).
		{"poisson-fixed-5000-block-edges", 4, 3*4096 + 17, poisson(4, 3*4096+17, 0.0003, 5000, HoldFixed, 1289), "6c861d998866c76e", 27788},
		{"markov-long-busy-block-edges", 4, 3*4096 + 17, markov(4, 3*4096+17, 0.002, 2e-4, 566), "b67991f2c9cc2708", 44868},
		// Busy through the horizon from blocks 0, 1, 2 and 1.
		{"poisson-busy-through-later-blocks", 4, 3*4096 + 17, poisson(4, 3*4096+17, 0.0005, 20000, HoldGeometric, 13), "a71e127028b343fd", 25674},
	}
}

// scheduleDigest hashes every answer j gives for slot ∈ [−1, horizon]
// and ch ∈ [−1, channels], channel-major, packed one bit per answer,
// and counts the true ones.
func scheduleDigest(j Jammer, channels int, horizon int64) (string, int64) {
	h := sha256.New()
	var buf [8]byte
	var word uint64
	n, jammed := 0, int64(0)
	for ch := int32(-1); ch <= int32(channels); ch++ {
		for slot := int64(-1); slot <= horizon; slot++ {
			if j.Jammed(slot, ch) {
				word |= 1 << (n & 63)
				jammed++
			}
			if n++; n&63 == 0 {
				for i := range buf {
					buf[i] = byte(word >> (8 * i))
				}
				h.Write(buf[:])
				word = 0
			}
		}
	}
	for i := range buf {
		buf[i] = byte(word >> (8 * i))
	}
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))[:16], jammed
}

// readBits holds one answer per (slot, ch) of the probe window
// [−1, horizon] × [−1, channels] and replays them as a Jammer, so
// answers read in any order hash like a channel-major read.
type readBits struct {
	channels int
	horizon  int64
	bits     []uint64
}

func newReadBits(channels int, horizon int64) *readBits {
	return &readBits{channels, horizon, make([]uint64, (int64(channels+2)*(horizon+2)+63)/64)}
}

func (r *readBits) index(slot int64, ch int32) int64 { return int64(ch+1)*(r.horizon+2) + slot + 1 }

func (r *readBits) record(slot int64, ch int32, jammed bool) {
	if jammed {
		i := r.index(slot, ch)
		r.bits[i>>6] |= 1 << (i & 63)
	}
}

func (r *readBits) Jammed(slot int64, ch int32) bool {
	i := r.index(slot, ch)
	return r.bits[i>>6]>>(i&63)&1 != 0
}

// readOrders visit the probe window in the engine's order (every
// channel of a slot before the next slot) and backwards from the last
// slot, so the first read of a fresh schedule lands at its start or at
// its end.
var readOrders = []struct {
	name string
	each func(channels int, horizon int64, read func(slot int64, ch int32))
}{
	{"slot-major", func(channels int, horizon int64, read func(int64, int32)) {
		for slot := int64(-1); slot <= horizon; slot++ {
			for ch := int32(-1); ch <= int32(channels); ch++ {
				read(slot, ch)
			}
		}
	}},
	{"backwards", func(channels int, horizon int64, read func(int64, int32)) {
		for slot := horizon; slot >= -1; slot-- {
			for ch := int32(channels); ch >= -1; ch-- {
				read(slot, ch)
			}
		}
	}},
}

// TestSpectrumSchedulesPinned pins the Markov and Poisson occupancy
// trajectories bit for bit over the whole probe window, out-of-range
// slots and channels included. The golden traces only read the slots
// and channels a run reaches; this covers every one. Each case is read
// three times, from fresh instances: channel-major, in the engine's
// slot-major order, and backwards. All three must give the one pinned
// digest, whatever the first read drew. The digests of the first 18
// cases were recorded on the per-channel bitset implementation that
// drew each schedule at construction, the rest on the flat bitmap
// drawn whole on the first read.
func TestSpectrumSchedulesPinned(t *testing.T) {
	for _, tc := range pinCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() Jammer {
				j, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			digest, jammed := scheduleDigest(build(), tc.channels, tc.horizon)
			if digest != tc.digest || jammed != tc.jammed {
				t.Errorf("channel-major: schedule digest %s with %d jammed answers, pinned %s with %d", digest, jammed, tc.digest, tc.jammed)
			}
			for _, order := range readOrders {
				j, read := build(), newReadBits(tc.channels, tc.horizon)
				order.each(tc.channels, tc.horizon, func(slot int64, ch int32) { read.record(slot, ch, j.Jammed(slot, ch)) })
				if digest, jammed := scheduleDigest(read, tc.channels, tc.horizon); digest != tc.digest || jammed != tc.jammed {
					t.Errorf("%s: schedule digest %s with %d jammed answers, pinned %s with %d", order.name, digest, jammed, tc.digest, tc.jammed)
				}
			}
		})
	}
}
