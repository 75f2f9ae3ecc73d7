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

// TestSpectrumSchedulesPinned pins the Markov and Poisson occupancy
// trajectories bit for bit over the whole probe window, out-of-range
// slots and channels included. The golden traces only read the slots
// and channels a run reaches; this covers every one. The digests were
// recorded on the per-channel bitset implementation that drew each
// schedule at construction.
func TestSpectrumSchedulesPinned(t *testing.T) {
	for _, tc := range pinCases() {
		t.Run(tc.name, func(t *testing.T) {
			j, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			digest, jammed := scheduleDigest(j, tc.channels, tc.horizon)
			if digest != tc.digest || jammed != tc.jammed {
				t.Errorf("schedule digest %s with %d jammed answers, pinned %s with %d", digest, jammed, tc.digest, tc.jammed)
			}
		})
	}
}
