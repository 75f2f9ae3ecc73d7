package radio

import (
	"fmt"
	"testing"
	"testing/quick"

	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/rng"
)

// TestQuickEngineEquivalence fuzzes random networks, assignments and
// protocol behaviors and requires every replica of a BatchEngine to
// agree exactly with its solo Engine run — the load-bearing guarantee
// behind batched sweeps.
func TestQuickEngineEquivalence(t *testing.T) {
	f := func(seed uint64, replicas uint8) bool {
		g, err := graph.GNP(12, 0.35, rng.New(seed))
		if err != nil {
			return true // disconnected sample, skipped
		}
		a, err := chanassign.SharedPool(12, 4, 1, 8, rng.New(seed+1))
		if err != nil {
			return false
		}
		_, err = checkSoloVsBatch(int(replicas%4)+2, 1000, func(r int) soloRun {
			master := rng.New(seed + 2 + uint64(r))
			protos := make([]Protocol, 12)
			rps := make([]*randomProto, 12)
			for i := range protos {
				rps[i] = &randomProto{r: master.Split(uint64(i)), c: 4, slots: 60 + 10*r}
				protos[i] = rps[i]
			}
			return soloRun{nw: &Network{Graph: g, Assign: a}, protos: protos, outcome: func() string {
				out := ""
				for _, rp := range rps {
					out += fmt.Sprint(rp.heard, ";")
				}
				return out
			}}
		})
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickConservationLaws fuzzes runs and checks engine accounting
// invariants: action counts sum to node-slots, and deliveries never
// exceed listens.
func TestQuickConservationLaws(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.GNP(10, 0.4, r)
		if err != nil {
			return true
		}
		a, err := chanassign.Identical(10, 3, rng.New(seed+1))
		if err != nil {
			return false
		}
		master := rng.New(seed + 2)
		protos := make([]Protocol, 10)
		for i := range protos {
			protos[i] = &randomProto{r: master.Split(uint64(i)), c: 3, slots: 40}
		}
		e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
		if err != nil {
			return false
		}
		st := e.Run(1000)
		nodeSlots := int64(10) * st.Slots
		if st.Broadcasts+st.Listens+st.Idles != nodeSlots {
			return false
		}
		if st.Deliveries+st.Collisions > st.Listens {
			return false
		}
		return st.Completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
