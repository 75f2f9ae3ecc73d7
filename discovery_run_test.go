package crn

import (
	"context"
	"testing"
)

// TestDiscoveryFirstHeardMatchesTrace: on a static run every
// discoverer, the baselines included, reports for each identity it
// heard the first slot in which the delivery trace shows that sender
// reaching it, and it reports exactly the senders the trace shows.
func TestDiscoveryFirstHeardMatchesTrace(t *testing.T) {
	type pair struct{ listener, sender int }
	var first map[pair]int64
	s, err := New(WithTopology(GNP), WithNodes(12), WithChannels(4, 2, 3), WithSeed(8),
		WithDeliveryTrace(func(slot int64, listener, sender, _ int) {
			if _, ok := first[pair{listener, sender}]; !ok {
				first[pair{listener, sender}] = slot
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Primitive{Discovery(CSeek), KDiscovery(3), Discovery(Naive), Discovery(Uniform)} {
		first = make(map[pair]int64)
		res, err := p.Run(context.Background(), s, 4)
		if err != nil {
			t.Fatal(err)
		}
		det := res.Discovery
		reported := 0
		for u, ids := range det.Neighbors {
			for i, v := range ids {
				reported++
				want, ok := first[pair{u, v}]
				if !ok {
					t.Errorf("%s: node %d reports %d, which never reached it", p.Name(), u, v)
				} else if got := det.FirstHeard[u][i]; got != want {
					t.Errorf("%s: node %d first heard %d at slot %d, the trace says %d", p.Name(), u, v, got, want)
				}
			}
		}
		if reported != len(first) {
			t.Errorf("%s: %d identities reported, %d pairs in the trace", p.Name(), reported, len(first))
		}
		if reported == 0 {
			t.Errorf("%s: nothing was heard", p.Name())
		}
	}
}

// TestDiscoveryRunAllocs is the allocation regression for a whole
// discovery run: Discovery(CSeek).Run on GNP(n, 0.3) builds its
// machines, tables and Result in a fixed number of allocations, so the
// count must not grow with n. Per-node records (first-heard maps and
// their entries) made it 3,335 at n = 64 and 31,198 at n = 256.
//
// After AllocsPerRun's warm-up run the engine scratch and the CSEEK
// storage come back from their pools, and the run makes 23 or 24
// allocations, where allocating both per run made 44; with every pool
// empty it makes 45 to 47. The race detector drops pooled entries at
// random, so under it only the fresh-path ceiling holds.
func TestDiscoveryRunAllocs(t *testing.T) {
	ceiling := 64.0
	if poolsKeepEntries {
		ceiling = 30
	}
	for _, n := range []int{64, 256} {
		s, err := New(WithTopology(GNP), WithNodes(n), WithDensity(0.3), WithChannels(2, 1, 0), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var res *Result
		allocs := testing.AllocsPerRun(1, func() {
			if res, err = Discovery(CSeek).Run(ctx, s, 1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.0f allocations, %d pairs found", n, allocs, res.Discovery.PairsDiscovered)
		if allocs > ceiling {
			t.Errorf("n=%d: one run made %.0f allocations, ceiling %.0f", n, allocs, ceiling)
		}
	}
}
