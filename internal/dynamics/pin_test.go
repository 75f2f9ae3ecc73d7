package dynamics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// pinSlots is the length of a pinned trajectory, and pinResync the
// slot at which a fresh mutator stands in for a new engine.
const pinSlots, pinResync = 3000, 1500

// chainPins holds, per (leave, return, seed) case, the digest and the
// transition count of one churn and one flap trajectory. The wanted
// strings were recorded before churn and flapping shared one chain
// set: a change to one is a change of behaviour, not a refresh.
var chainPins = []struct {
	pLeave, pBack float64
	seed          uint64
	want          string
}{
	{0.02, 0.2, 9, "churn=7ef00dd99cd07d51/2278 flap=aef84794dd8448d2/7032"},
	{0, 0.3, 4, "churn=6dbaa6e832cf5205/0 flap=e4fb10aa3e627a35/0"},          // never leaves
	{1, 0.5, 3, "churn=3513fc6b8ce1e596/40149 flap=1aba23164d74316a/128428"}, // leaves every step
	{0.3, 1, 7, "churn=52d406284f398c29/27564 flap=0a7aff7b94508020/88499"},  // returns every step
	{0.5, 0, 2, "churn=d7275cf782ce5c02/20 flap=ef4493e4f10db70a/64"},        // parks forever once gone
	{0.001, 0.004, 68, "churn=6860485558f7c3d3/85 flap=8311689876037125/305"},
}

// TestChurnFlapTrajectoriesPinned pins the real churn and flap
// trajectories slot by slot on GNP(20, 0.3): the mutator's up set and
// every LastJoin (churn), and its edge set (flap), across a resync to
// a fresh mutator halfway through. The radio pins drive a scripted
// feed, so without this only one CGCAST setup pin would see a flap
// trajectory.
func TestChurnFlapTrajectoriesPinned(t *testing.T) {
	g, err := graph.GNP(20, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	upSet := func(m *fakeMut, dst []bool) []bool { return append(dst, m.up...) }
	edgeSet := func(m *fakeMut, dst []bool) []bool {
		for u := 0; u < m.n; u++ {
			for v := u + 1; v < m.n; v++ {
				dst = append(dst, m.HasEdge(u, v))
			}
		}
		return dst
	}
	for _, pc := range chainPins {
		t.Run(fmt.Sprintf("leave%v/back%v/seed%d", pc.pLeave, pc.pBack, pc.seed), func(t *testing.T) {
			churn, err := NewChurn(g.N(), pc.pLeave, pc.pBack, pc.seed)
			if err != nil {
				t.Fatal(err)
			}
			flap, err := NewEdgeFlap(g.Edges(), pc.pLeave, pc.pBack, pc.seed)
			if err != nil {
				t.Fatal(err)
			}
			joins := func(dst []byte) []byte {
				for u := 0; u < g.N(); u++ {
					dst = binary.LittleEndian.AppendUint64(dst, uint64(churn.LastJoin(u)))
				}
				return dst
			}
			cd, cn := pinTrajectory(g, churn, upSet, joins)
			fd, fn := pinTrajectory(g, flap, edgeSet, nil)
			got := fmt.Sprintf("churn=%016x/%d flap=%016x/%d", cd, cn, fd, fn)
			if got != pc.want {
				t.Errorf("trajectory changed:\n got  %s\n want %s", got, pc.want)
			}
			interior := pc.pLeave > 0 && pc.pLeave < 1 && pc.pBack > 0 && pc.pBack < 1
			if interior && (cn == 0 || fn == 0) {
				t.Errorf("churn made %d transitions and flapping %d; the case exercises nothing", cn, fn)
			}
		})
	}
}

// pinTrajectory steps feed over g for pinSlots slots, handing it a
// fresh mutator at pinResync. After every slot it hashes the state
// that state lists, then what extra appends. It returns the FNV-64a
// digest and the number of state entries that changed from one slot
// to the next: the transitions.
func pinTrajectory(g *graph.Graph, feed radio.TopologyFeed, state func(*fakeMut, []bool) []bool, extra func([]byte) []byte) (uint64, int) {
	h := fnv.New64a()
	mut := newFakeMut(g)
	prev := state(mut, nil)
	var cur []bool
	var buf []byte
	flips := 0
	for slot := int64(0); slot < pinSlots; slot++ {
		if slot == pinResync {
			mut = newFakeMut(g)
		}
		feed.Step(slot, mut)
		cur = state(mut, cur[:0])
		buf = buf[:0]
		for i, b := range cur {
			if b != prev[i] {
				flips++
			}
			if b {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		if extra != nil {
			buf = extra(buf)
		}
		h.Write(buf)
		prev, cur = cur, prev
	}
	return h.Sum64(), flips
}
