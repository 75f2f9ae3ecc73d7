package radio

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"crn/internal/graph"
	"crn/internal/rng"
)

// This file pins the slot loop's observable behaviour to fixed values
// recorded from an independent earlier implementation of the engine:
// for a single Engine run and for each replica of a 3-replica
// BatchEngine it hashes the run's Stats, its ordered delivery trace and
// every node's full observation sequence (slot, sender, payload or
// nil). The equivalence suites elsewhere compare execution paths with
// each other; this one compares against constants, so it still bites
// when every path is rewritten at once.

// pinProto draws a random action per slot from its own stream and
// folds every observation into a per-node hash. life > 0 ends the
// protocol after that many observed slots (declared via
// FixedSchedule); life == 0 never finishes. With a bank attached the
// view reports it (range dispatch); without, the engine calls Act and
// Observe per node.
type pinProto struct {
	bank     *pinBank
	idx      int
	r        *rng.Source
	c        int
	life     int64
	observed int64
	h        hash.Hash64
}

func (p *pinProto) Act(_ int64) Action {
	switch p.r.Intn(3) {
	case 0:
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c), Data: p.idx*1000 + int(p.observed)}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (p *pinProto) Observe(slot int64, msg *Message) {
	if msg == nil {
		p.record(slot, -1, nil)
		return
	}
	p.record(slot, msg.From, msg.Data)
}

func (p *pinProto) record(slot int64, from NodeID, data any) {
	p.observed++
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(slot))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(from))
	d := -1
	if data != nil {
		d = data.(int)
	}
	binary.LittleEndian.PutUint32(buf[12:], uint32(d))
	p.h.Write(buf[:])
}

func (p *pinProto) Done() bool { return p.life > 0 && p.observed >= p.life }

func (p *pinProto) MinDoneSlots() int64 { return p.life }

func (p *pinProto) RangeBank() (RangeProtocol, int) {
	if p.bank == nil {
		return nil, 0
	}
	return p.bank, p.idx
}

type pinBank struct{ nodes []*pinProto }

func (b *pinBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *pinBank) ObserveRange(slot int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		b.nodes[u].record(slot, deliveries[u].From, deliveries[u].Data)
	}
}

// pinSet builds one of the pinned protocol sets over n nodes:
//
//   - "node": per-node dispatch, every node finite (100+7u observed
//     slots) and declaring FixedSchedule, so a static run finishes
//     mid-budget;
//   - "bank": range dispatch, odd nodes finite (90+5u), even nodes
//     never done, so the run outlives its first finishers;
//   - "delayed": per-node dispatch behind Delayed wrappers with
//     staggered starts (11u mod 60), odd inner protocols finite (80).
func pinSet(set string, n, c int, seed uint64) ([]Protocol, []*pinProto) {
	master := rng.New(seed)
	views := make([]*pinProto, n)
	protos := make([]Protocol, n)
	for u := range views {
		v := &pinProto{idx: u, r: master.Split(uint64(u)), c: c, h: fnv.New64a()}
		switch set {
		case "node":
			v.life = int64(100 + 7*u)
		case "bank":
			if u%2 == 1 {
				v.life = int64(90 + 5*u)
			}
		case "delayed":
			if u%2 == 1 {
				v.life = 80
			}
		}
		views[u] = v
		protos[u] = v
		if set == "delayed" {
			protos[u] = &Delayed{Start: int64(11 * u % 60), Inner: v}
		}
	}
	if set == "bank" {
		bank := &pinBank{nodes: views}
		for _, v := range views {
			v.bank = bank
		}
	}
	return protos, views
}

// pinCase is one network condition of the pin matrix.
type pinCase struct {
	name     string
	jammer   func() Jammer
	topology func(g *graph.Graph, seed uint64) TopologyFeed
}

func pinCases() []pinCase {
	none := func() Jammer { return nil }
	parity := func() Jammer { return parityJammer{} }
	reactive := func() Jammer { return &reactiveTestJammer{target: -1} }
	static := func(*graph.Graph, uint64) TopologyFeed { return nil }
	return []pinCase{
		{"static", none, static},
		{"parity", parity, static},
		{"reactive", reactive, static},
		{"churnflap", none, churnFlapFeed},
		{"jammed-dynamic", parity, churnFlapFeed},
	}
}

// pinDigest hashes one run's Stats, ordered trace and every node's
// observation hash into a short hex string.
func pinDigest(st Stats, trace []pinEvent, views []*pinProto) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", st)
	for _, ev := range trace {
		fmt.Fprintf(h, "%d %d %d %d %d\n", ev.slot, ev.listener, ev.ch, ev.from, ev.data)
	}
	for _, v := range views {
		fmt.Fprintf(h, "%x\n", v.h.Sum64())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type pinEvent struct {
	slot     int64
	listener NodeID
	ch       int32
	from     NodeID
	data     int
}

func pinRecorder(dst *[]pinEvent) TraceFunc {
	return func(slot int64, listener NodeID, ch int32, msg *Message) {
		*dst = append(*dst, pinEvent{slot, listener, ch, msg.From, msg.Data.(int)})
	}
}

// pinnedDigests holds, per case/set, the Engine run's digest followed
// by the three BatchEngine replicas' digests.
var pinnedDigests = map[string][4]string{
	"static/node":            {"e9ff979a683674bf", "4a2810f00f6fee2b", "8392301b578e0e49", "3c6d1176e923a74f"},
	"static/bank":            {"4fa746d66eaf9a95", "4ea8860ead48e771", "9e890b0edbfbd889", "f0e7a4f292ac44a6"},
	"static/delayed":         {"807d1be24c65b0aa", "e39677cc76a45567", "ba6f88efa84dccd4", "d7c0de0cb1c3ea60"},
	"parity/node":            {"f5cd2968babddb47", "29e5dd4bc61d0c31", "9349853a49ecfbac", "e64a8bffaace0b6c"},
	"parity/bank":            {"bb8726c8f809ec57", "c56b899b052b4441", "19e2520c6bc28f80", "e6f110871911f25c"},
	"parity/delayed":         {"d440e71b31e7611d", "3a1c2850578bc90d", "37be43ed4df2ea99", "7ec2aa62e91b0049"},
	"reactive/node":          {"8c1f4ef255798725", "bf14a14b51f06177", "8166b261e05976b1", "e5895263e8d76c79"},
	"reactive/bank":          {"9f6259180ca7dece", "e5036409b577f87f", "f298dd1617e3cef2", "12977073570d15cd"},
	"reactive/delayed":       {"264c4724916fe6d2", "6ad19bcbadaad406", "34a0dae5f0e4ddb0", "c2ef1a7e4331432c"},
	"churnflap/node":         {"a1cdc9421f8b8dd8", "dc437c0d99e97792", "177f95b6b10622ff", "70bc3259577c0c40"},
	"churnflap/bank":         {"4a4ef02533f40de0", "653de2a3c4db92e9", "08f8602e28ec0d00", "c7aa9bb576e47642"},
	"churnflap/delayed":      {"c87f985d40addcba", "f040a4a23f29488e", "576dfd838f1faf5b", "15fffa213314760b"},
	"jammed-dynamic/node":    {"7419274a016e8c6b", "a48915b691b194c2", "ac6612a03d343667", "3c59c967fe45f614"},
	"jammed-dynamic/bank":    {"c88b56f695e5d4fd", "c80f15868bb9e23d", "b6253fe4d23dda9f", "c5689ffd10b220bc"},
	"jammed-dynamic/delayed": {"1d9bab32d52ab8e6", "d58d8681d257fc21", "952fa99a6366b5d7", "5530c830bbbfb9bd"},
}

// TestEnginePinned runs every case × set through a single Engine
// (seed 1) and a 3-replica BatchEngine (seeds 2..4, one fresh jammer
// and feed per replica) and compares each run's digest with the
// pinned value.
func TestEnginePinned(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, slots = 24, 5, 300
	for _, pc := range pinCases() {
		for _, set := range []string{"node", "bank", "delayed"} {
			key := pc.name + "/" + set
			t.Run(key, func(t *testing.T) {
				var got [4]string

				var trace []pinEvent
				protos, views := pinSet(set, n, c, 1)
				e, err := NewEngine(&Network{
					Graph: g, Assign: a, Jammer: pc.jammer(),
					Topology: pc.topology(g, 0x5EED), Trace: pinRecorder(&trace),
				}, protos)
				if err != nil {
					t.Fatal(err)
				}
				if e.RangeDispatch() != (set == "bank") {
					t.Fatalf("RangeDispatch = %v for set %s", e.RangeDispatch(), set)
				}
				st := e.Run(slots)
				pinSanity(t, pc.name, set, st, slots)
				got[0] = pinDigest(st, trace, views)

				const b = 3
				reps := make([]Replica, b)
				traces := make([][]pinEvent, b)
				repViews := make([][]*pinProto, b)
				for r := range reps {
					protos, vs := pinSet(set, n, c, uint64(2+r))
					repViews[r] = vs
					reps[r] = Replica{
						Protocols: protos,
						Jammer:    pc.jammer(),
						Trace:     pinRecorder(&traces[r]),
						Topology:  pc.topology(g, 0x5EED+uint64(1+r)),
					}
				}
				be, err := NewBatchEngine(g, a, reps)
				if err != nil {
					t.Fatal(err)
				}
				sts := be.Run(slots)
				for r := 0; r < b; r++ {
					pinSanity(t, pc.name, set, sts[r], slots)
					got[1+r] = pinDigest(sts[r], traces[r], repViews[r])
				}
				want, ok := pinnedDigests[key]
				if !ok {
					t.Errorf("no pinned digests for %s; got %q", key, got)
					return
				}
				if got != want {
					t.Errorf("digests changed:\n got  %q\n want %q", got, want)
				}
			})
		}
	}
}

// pinSanity guards the pin matrix against going tame: every run must
// deliver and collide, jammed cases must jam, dynamic cases must churn
// and flap, static "node" runs must finish mid-budget and "bank" runs
// must outlive their first finishers.
func pinSanity(t *testing.T, cs, set string, st Stats, slots int64) {
	t.Helper()
	if st.Deliveries == 0 || st.Collisions == 0 {
		t.Errorf("%s/%s: no deliveries or collisions: %+v", cs, set, st)
	}
	if (cs == "parity" || cs == "reactive" || cs == "jammed-dynamic") && st.JammedListens == 0 {
		t.Errorf("%s/%s: jammed case jammed nothing: %+v", cs, set, st)
	}
	dynamic := cs == "churnflap" || cs == "jammed-dynamic"
	if dynamic && (st.DownSlots == 0 || st.EdgeAdds+st.EdgeRemoves == 0) {
		t.Errorf("%s/%s: dynamic case applied no dynamics: %+v", cs, set, st)
	}
	if !dynamic && set == "node" && (!st.Completed || st.Slots >= slots) {
		t.Errorf("%s/%s: run did not finish mid-budget: %+v", cs, set, st)
	}
	if set == "bank" && (st.Completed || st.Slots != slots) {
		t.Errorf("%s/%s: run did not use its whole budget: %+v", cs, set, st)
	}
}

// pinnedSteadyDigests holds the same digests for untraced static runs
// with no jammer — the runs the resolve phase's steady-state loop
// serves (TestEnginePinned installs a trace on every run, which
// selects the general loop).
var pinnedSteadyDigests = map[string][4]string{
	"node":    {"63c6d8e9e332ea37", "9d79242b5d983d8b", "d2b23c2537c282b6", "96d2d1e7ec354985"},
	"bank":    {"90a556f533d70037", "6a615c75eafce05f", "1135a4e218b0ae1c", "cdc5751713ef0bfa"},
	"delayed": {"2ea8a66ccdcd0e84", "d2e6b60ae42d3ce6", "5bc7094f20212c25", "cb7c40e993cba2b3"},
}

// TestEnginePinnedSteadyState pins the steady-state resolve loop: each
// set runs untraced on a static, unjammed network, through a single
// Engine (seed 1) and a 3-replica BatchEngine (seeds 2..4).
func TestEnginePinnedSteadyState(t *testing.T) {
	g, a := rangedFixture(t)
	const n, c, slots = 24, 5, 300
	for _, set := range []string{"node", "bank", "delayed"} {
		t.Run(set, func(t *testing.T) {
			var got [4]string
			protos, views := pinSet(set, n, c, 1)
			e, err := NewEngine(&Network{Graph: g, Assign: a}, protos)
			if err != nil {
				t.Fatal(err)
			}
			st := e.Run(slots)
			pinSanity(t, "static", set, st, slots)
			got[0] = pinDigest(st, nil, views)

			reps := make([]Replica, 3)
			repViews := make([][]*pinProto, 3)
			for r := range reps {
				reps[r].Protocols, repViews[r] = pinSet(set, n, c, uint64(2+r))
			}
			be, err := NewBatchEngine(g, a, reps)
			if err != nil {
				t.Fatal(err)
			}
			for r, st := range be.Run(slots) {
				pinSanity(t, "static", set, st, slots)
				got[1+r] = pinDigest(st, nil, repViews[r])
			}
			if want, ok := pinnedSteadyDigests[set]; !ok || got != want {
				t.Errorf("digests changed:\n got  %q\n want %q", got, want)
			}
		})
	}
}
