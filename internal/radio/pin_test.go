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
// recorded from an earlier implementation of the engine: for a single
// Engine run and for each replica of a 3-replica BatchEngine it hashes
// the run's Stats, its ordered delivery trace (slot, listener, channel,
// sender) and every node's full observation sequence (slot, sender).
// The values were recorded on the engine that still carried a payload
// per frame, before that payload was removed. The equivalence suites
// elsewhere compare execution paths with each other; this one compares
// against constants, so it still bites when every path is rewritten at
// once.

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
		return Action{Kind: Broadcast, Ch: p.r.Intn(p.c)}
	case 1:
		return Action{Kind: Listen, Ch: p.r.Intn(p.c)}
	default:
		return Action{Kind: Idle}
	}
}

func (p *pinProto) Observe(slot int64, d Delivery) {
	p.record(slot, d.From)
}

func (p *pinProto) record(slot int64, from NodeID) {
	p.observed++
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(slot))
	binary.LittleEndian.PutUint32(buf[8:], uint32(from))
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
		b.nodes[u].record(slot, deliveries[u].From)
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
		fmt.Fprintf(h, "%d %d %d %d\n", ev.slot, ev.listener, ev.ch, ev.from)
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
}

func pinRecorder(dst *[]pinEvent) TraceFunc {
	return func(slot int64, listener NodeID, ch int32, d Delivery) {
		*dst = append(*dst, pinEvent{slot, listener, ch, d.From})
	}
}

// pinnedDigests holds, per case/set, the Engine run's digest followed
// by the three BatchEngine replicas' digests.
var pinnedDigests = map[string][4]string{
	"static/node":            {"dbbe0589196085fd", "77301c031cfb41fc", "a05b6b629ce940df", "6971a51b7d736f7c"},
	"static/bank":            {"dddc01115bf9cb44", "a4805600cd4eba0c", "4c6168313ca8a15f", "8d05aebe4f296df5"},
	"static/delayed":         {"131c2c63c411d980", "383555f25f91446d", "40baf24dd22a86f3", "42444ad4d6bb6863"},
	"parity/node":            {"b868a712b8b34156", "0df4348093afee8b", "1174224f911caff4", "7a9e36a04509d138"},
	"parity/bank":            {"b1077ff41a4a5e66", "570c358ccd8a55e1", "70c4231eb5af88e3", "f8c546b613f3f2de"},
	"parity/delayed":         {"ebc86ed8cf44dd66", "e609f0bbdbd1a097", "440b1eb2b8bcc4fe", "51d91fc0cbe6a1df"},
	"reactive/node":          {"02b141927d89b3c4", "435fad788c5f9c23", "d1e5692f64f7550e", "179841a9e0278d53"},
	"reactive/bank":          {"68d71ad5e40aff8f", "a612f6c768540b4b", "cd9921926e77ebac", "b5c0b395fe06c06f"},
	"reactive/delayed":       {"1f4527536d2e79df", "b55bf7f64177b003", "c329e5d2123c7beb", "1aa4b5745380c937"},
	"churnflap/node":         {"455c11ef87d08698", "37cc7d36d0e1ef4c", "28cbc26cabbd7cf4", "876ced7b63355451"},
	"churnflap/bank":         {"1b6c3fbff203d102", "127305ff57cae54a", "c20e0e43b4b50346", "6391e805d2296083"},
	"churnflap/delayed":      {"ebe1f167ffd43aea", "c24559bda77b09dc", "926ff03a32f335c3", "93d3741a648c4945"},
	"jammed-dynamic/node":    {"84b3fd52454d9bb9", "0c1281f398cfe220", "bee9a52054f073ce", "c0bd10d16783dbea"},
	"jammed-dynamic/bank":    {"981b1602454941b5", "d3d137101120277f", "e4dcd7318c8087e3", "0e4153405cc0faea"},
	"jammed-dynamic/delayed": {"e9342439fc19705c", "953b97277eb87152", "1056678a1f6d4008", "957a14fd03c48278"},
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
// with no jammer: the one resolve loop with none of its per-replica
// passes (jam filter, partition-loss check, trace pass) switched on.
// TestEnginePinned installs a trace on every run, so it never pins
// that case.
var pinnedSteadyDigests = map[string][4]string{
	"node":    {"e8b91867a3e943e8", "e09b6d88206dde65", "272a09215f62766e", "96dba71aaf7faa85"},
	"bank":    {"0267f9123031c5a0", "7ff762d1fd5616b4", "77a8c2267b83dc03", "878c92abc38d64f2"},
	"delayed": {"79373886f502aa21", "376a24139641b97c", "e174155398f6d44d", "979896a4c7665874"},
}

// TestEnginePinnedSteadyState pins the resolve loop as the static
// benchmarks run it: each set runs untraced on a static, unjammed
// network, through a single Engine (seed 1) and a 3-replica
// BatchEngine (seeds 2..4).
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
