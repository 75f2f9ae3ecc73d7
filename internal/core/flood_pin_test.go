package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"crn/internal/dynamics"
	"crn/internal/radio"
	"crn/internal/spectrum"
)

// pinnedFlood is one flooding instance pinned by TestFloodPinned.
// build returns a fresh network (so a stateful jammer or topology feed
// starts over), its parameters and the diameter. want holds one digest
// per (seed, source) pair, seeds outermost, in the order of floodSeeds
// and the instance's sources.
type pinnedFlood struct {
	name    string
	sources [2]radio.NodeID
	build   func(t *testing.T) (*radio.Network, Params, int)
	want    [4]string
}

// floodSeeds are the seeds of the pinned flooding runs.
var floodSeeds = [2]uint64{7, 19}

var pinnedFloods = []pinnedFlood{
	{name: "unitdisk48", sources: [2]radio.NodeID{0, 47}, build: unitDisk48Net,
		want: [4]string{
			"slots=3888 at=41 all=true informed=48/48 digest=91aba845a6dba4d4",
			"slots=3888 at=54 all=true informed=48/48 digest=43335744cf333816",
			"slots=3888 at=55 all=true informed=48/48 digest=8a0f5e5bcddb0140",
			"slots=3888 at=57 all=true informed=48/48 digest=b9215158f3150daa",
		}},
	{name: "clusterchain4x4", sources: [2]radio.NodeID{5, 15}, build: clusterChainNet,
		want: [4]string{
			"slots=1344 at=47 all=true informed=16/16 digest=46d2c387140857cc",
			"slots=1344 at=72 all=true informed=16/16 digest=7433ab337946deb4",
			"slots=1344 at=73 all=true informed=16/16 digest=aa02c24a263f6a48",
			"slots=1344 at=118 all=true informed=16/16 digest=98e05e6a684ee2c7",
		}},
	// Poisson primary users jam the channels the message hops on.
	{name: "clusterchain4x4-poisson", sources: [2]radio.NodeID{5, 15},
		build: func(t *testing.T) (*radio.Network, Params, int) {
			nw, p, d := clusterChainNet(t)
			j, err := spectrum.NewPoisson(nw.Assign.Universe, 1<<22, 0.01, 20, spectrum.HoldGeometric, 72)
			if err != nil {
				t.Fatal(err)
			}
			nw.Jammer = j
			return nw, p, d
		},
		want: [4]string{
			"slots=1344 at=67 all=true informed=16/16 digest=3e485954fb6cdda5",
			"slots=1344 at=72 all=true informed=16/16 digest=422e2de4a5c9409f",
			"slots=1344 at=73 all=true informed=16/16 digest=62cb4d1a858dd090",
			"slots=1344 at=149 all=true informed=16/16 digest=422f3e8cbf22b7d9",
		}},
	// Churn takes nodes down before every node is informed.
	{name: "clusterchain4x4-churn", sources: [2]radio.NodeID{5, 15},
		build: func(t *testing.T) (*radio.Network, Params, int) {
			nw, p, d := clusterChainNet(t)
			churn, err := dynamics.NewChurn(nw.Graph.N(), 0.005, 0.01, 73)
			if err != nil {
				t.Fatal(err)
			}
			nw.Topology = churn
			return nw, p, d
		},
		want: [4]string{
			"slots=1344 at=91 all=true informed=16/16 digest=66594ddb2621f078",
			"slots=1344 at=80 all=true informed=16/16 digest=f14a6e42483d24be",
			"slots=1344 at=368 all=true informed=16/16 digest=e57a5e05d477fa4f",
			"slots=1344 at=352 all=true informed=16/16 digest=d6c020d8d1065992",
		}},
}

// floodDigest floods from source over nw and summarizes the result:
// schedule length, completion slot and informed count in clear, and an
// FNV-64a digest over the ordered delivery trace, every node's informed
// flag and the engine counters.
func floodDigest(t *testing.T, nw *radio.Network, p Params, d int, source radio.NodeID, seed uint64) string {
	t.Helper()
	h := fnv.New64a()
	nw.Trace = func(slot int64, listener radio.NodeID, ch int32, dl radio.Delivery) {
		fmt.Fprintf(h, "%d:%d:%d:%d;", slot, listener, ch, dl.From)
	}
	res, err := RunFloodCtx(context.Background(), nw, p, d, source, seed)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Jammer != nil && res.Radio.JammedListens == 0 {
		t.Error("the jammer blocked no listener; the instance exercises nothing")
	}
	// The run stops once every node is informed, so a down slot was
	// spent before completion.
	if nw.Topology != nil && res.Radio.DownSlots == 0 {
		t.Error("churn took no node down before completion; the instance exercises nothing")
	}
	informed := 0
	for _, ok := range res.Informed {
		if ok {
			informed++
		}
	}
	fmt.Fprintf(h, "%v|%+v", res.Informed, res.Radio)
	return fmt.Sprintf("slots=%d at=%d all=%v informed=%d/%d digest=%016x",
		res.ScheduleSlots, res.AllInformedAt, res.AllInformed, informed, len(res.Informed), h.Sum64())
}

// TestFloodPinned pins the flooding baseline — RunFloodCtx's result
// and its ordered delivery trace — on unit-disk n = 48, the 4×4 cluster
// chain, the chain under Poisson primary users and the chain under
// churn, from two sources at two seeds each. The wanted strings were
// recorded before frames lost their payload and before the flooding
// machines were built as one run: a change to one is a change of
// behaviour, not a refresh.
func TestFloodPinned(t *testing.T) {
	for _, tc := range pinnedFloods {
		i := 0
		for _, seed := range floodSeeds {
			for _, src := range tc.sources {
				want := tc.want[i]
				i++
				t.Run(fmt.Sprintf("%s/seed%d/src%d", tc.name, seed, src), func(t *testing.T) {
					nw, p, d := tc.build(t)
					if got := floodDigest(t, nw, p, d, src, seed); got != want {
						t.Errorf("flooding changed:\n got  %s\n want %s", got, want)
					}
				})
			}
		}
	}
}
