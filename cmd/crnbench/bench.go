package main

// The -bench mode: in-process micro/macro benchmarks of the simulator
// hot paths, emitted as a machine-readable report. Where `go test
// -bench` needs the toolchain and a test binary, `crnbench -bench`
// runs anywhere the CLI does (CI smoke steps, perf dashboards) and
// reports the metric the ROADMAP cares about — node-slots per second
// through the radio engine — alongside ns/op and allocs/op.
//
// The suite mirrors the repository benchmarks so numbers are
// comparable: the raw engine slot loop (BenchmarkEngineSlot), CSEEK
// discovery and CGCAST broadcast end-to-end through the public
// Primitive API (BenchmarkDiscoverCSeek / BenchmarkBroadcastCGCast),
// and the sweep engine at 1/2/4/8 workers (BenchmarkSweep). Three
// entries time one layer alone: protocol/cseek-bank steps the CSEEK
// machines without the engine, spectrum/schedule-fill times the draw
// of a primary-user schedule, and scenario/assemble times building a
// scenario's channel assignment and structural parameters over a
// prebuilt graph. One entry times the service layer: service/roundtrip
// runs a small job through an in-process crnsweepd (roundtrip.go).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"crn"
	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/dynamics"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/spectrum"
)

// BenchResult is one benchmark measurement in the JSON report.
type BenchResult struct {
	// Name identifies the benchmark, in go-test style ("engine/slot").
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// NodeSlotsPerSec is simulated node-slots per wall second, the
	// engine throughput metric (0 where not applicable).
	NodeSlotsPerSec float64 `json:"node_slots_per_sec,omitempty"`
	// N is the iteration count the measurement averaged over.
	N int `json:"n"`
	// Skipped marks a benchmark that did not run on this host, with
	// Note saying why (e.g. a parallelism axis beyond GOMAXPROCS —
	// measuring it would only restate the serial number and flatten
	// the scaling curve dishonestly).
	Skipped bool   `json:"skipped,omitempty"`
	Note    string `json:"note,omitempty"`
}

// BenchReport is the full -bench output.
type BenchReport struct {
	// CPU, GoMaxProcs and GoVersion fingerprint the host the suite ran
	// on; -compare times entries only against a baseline from the same
	// host. GoMaxProcs is also the host parallelism: scaling-axis
	// numbers (sweep/workers=N) are only meaningful up to it, and the
	// suite skips the rest rather than reporting a flat curve that just
	// restates the serial measurement.
	CPU        string `json:"cpu,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go,omitempty"`
	// Results holds one entry per benchmark.
	Results []BenchResult `json:"results"`
}

// host describes the machine the report ran on, naming what a report
// from before the fingerprint did not record.
func (r BenchReport) host() string {
	cpu, goVersion := r.CPU, r.GoVersion
	if cpu == "" {
		cpu = "CPU unrecorded"
	}
	if goVersion == "" {
		goVersion = "Go version unrecorded"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s", cpu, r.GoMaxProcs, goVersion)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where there is none.
func cpuModel() string {
	doc, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(doc), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// benchSpec couples a benchmark with the node-slot volume one
// operation simulates (0 when node-slots/sec is not meaningful).
// A non-empty skip note turns the spec into a skipped report entry.
// reps > 1 runs the benchmark that many times and reports the fastest
// run — microsecond-scale engine loops are cheap to repeat and the
// minimum strips scheduler noise that a single 1-second run folds into
// the number; the minutes-long primitive and sweep specs stay at 1.
type benchSpec struct {
	name        string
	nodeSlotsOp float64
	fn          func(b *testing.B)
	skip        string
	reps        int
}

func benchSuite() ([]benchSpec, error) {
	// Engine slot loop: 64 nodes of scripted random traffic, the same
	// instance BenchmarkEngineSlot uses.
	engineBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		master := rng.New(1)
		protos := make([]radio.Protocol, 64)
		for i := range protos {
			protos[i] = benchRandomProto(master.Split(uint64(i)), 8)
		}
		e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, protos)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	// The same engine workload under topology dynamics (churn + link
	// flapping), isolating the per-slot cost of the dynamics path:
	// feed stepping, mutable-view probes, partition-loss accounting.
	dynamicsBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		master := rng.New(1)
		protos := make([]radio.Protocol, 64)
		for i := range protos {
			protos[i] = benchRandomProto(master.Split(uint64(i)), 8)
		}
		churn, err := dynamics.NewChurn(64, 0.002, 0.05, 4)
		if err != nil {
			b.Fatal(err)
		}
		flap, err := dynamics.NewEdgeFlap(g.Edges(), 0.005, 0.1, 5)
		if err != nil {
			b.Fatal(err)
		}
		e, err := radio.NewEngine(&radio.Network{
			Graph: g, Assign: a, Topology: dynamics.Compose(churn, flap),
		}, protos)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	gnp, err := crn.New(crn.WithTopology(crn.GNP), crn.WithNodes(16), crn.WithChannels(5, 2, 0), crn.WithSeed(7))
	if err != nil {
		return nil, err
	}
	mobile, err := crn.New(
		crn.WithTopology(crn.UnitDisk), crn.WithNodes(16), crn.WithChannels(5, 2, 0),
		crn.WithDensity(0.45), crn.WithSeed(7),
		crn.WithChurn(0.002, 0.05, 4), crn.WithMobility(0.004, 4, 5),
	)
	if err != nil {
		return nil, err
	}
	chain, err := crn.New(crn.WithTopology(crn.Chain), crn.WithNodes(16), crn.WithChannels(4, 2, 0), crn.WithSeed(7))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// End-to-end primitives, matching the facade benchmarks: the
	// node-slot volume per op is the scenario's node count times the
	// slots one run executes (measured once up front). Discovery stops
	// when it completes; CGCAST counts only the slots the engine
	// simulates — its dissemination schedule — because abstract-mode
	// setup slots are charged, not simulated.
	cseek := crn.Discovery(crn.CSeek)
	discoverySlots := func(s *crn.Scenario) (int64, error) {
		res, err := cseek.Run(ctx, s, 1)
		if err != nil {
			return 0, err
		}
		if res.CompletedAtSlot >= 0 {
			return res.CompletedAtSlot, nil
		}
		return res.ScheduleSlots, nil
	}
	cseekSlots, err := discoverySlots(gnp)
	if err != nil {
		return nil, err
	}
	mobileSlots, err := discoverySlots(mobile)
	if err != nil {
		return nil, err
	}
	cgcast := crn.GlobalBroadcast(0, "m")
	cgcastRes, err := cgcast.Run(ctx, chain, 1)
	if err != nil {
		return nil, err
	}
	cgcastSlots := cgcastRes.Broadcast.DissemScheduleSlots

	// Kernel slot loop: the same 64-node graph driven by deterministic
	// scripted protocols (arithmetic role rotation, no rng, a declared
	// FixedSchedule bound) behind a range-ABI bank, isolating the engine
	// kernel — range dispatch, index build, bitset-row resolution — from
	// the random-traffic protocol cost that dominates engine/slot. This
	// is the entry the ROADMAP's 100M node-slots/sec target gates on.
	kernelBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, kernelProtos(64, 8, true))
		if err != nil {
			b.Fatal(err)
		}
		if !e.RangeDispatch() {
			b.Fatal("kernel bank not detected")
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	// The engine/slot workload (rng-drawing random traffic) behind a
	// range bank: against engine/slot this isolates what the batch-aware
	// ABI buys on realistic protocols, where the protocol itself still
	// pays rng draws per action.
	rangeBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		protos := benchRandomBankedProtos(64, 8, rng.New(1))
		e, err := radio.NewEngine(&radio.Network{Graph: g, Assign: a}, protos)
		if err != nil {
			b.Fatal(err)
		}
		if !e.RangeDispatch() {
			b.Fatal("rand bank not detected")
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	// The kernel workload batched: 8 replicas of the same scenario
	// stepped in lockstep by one BatchEngine, the execution strategy
	// behind SweepSpec.Batch. One op is one batch slot — 8×64
	// node-slots. Deliberately plain per-node protocols: they run
	// through the engine's per-node adapter bank, so against
	// engine/slot-kernel (the same protocols behind their own bank) it
	// prices the adapter.
	const batchReplicas = 8
	batchBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		reps := make([]radio.Replica, batchReplicas)
		for r := range reps {
			reps[r] = radio.Replica{Protocols: kernelProtos(64, 8, false)}
		}
		e, err := radio.NewBatchEngine(g, a, reps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	// Dynamic-topology batching: 8 replicas of the slot-dynamics
	// workload — random traffic under churn + link flapping, one private
	// feed and graph clone per replica — through one BatchEngine. Against
	// engine/slot-dynamics this prices the per-replica reconciliation
	// the batch engine now performs instead of falling back to
	// sequential runs.
	batchDynBench := func(b *testing.B) {
		g, a, err := benchTopology()
		if err != nil {
			b.Fatal(err)
		}
		reps := make([]radio.Replica, batchReplicas)
		for r := range reps {
			master := rng.New(uint64(100 + r))
			protos := make([]radio.Protocol, 64)
			for i := range protos {
				protos[i] = benchRandomProto(master.Split(uint64(i)), 8)
			}
			churn, err := dynamics.NewChurn(64, 0.002, 0.05, uint64(40+r))
			if err != nil {
				b.Fatal(err)
			}
			flap, err := dynamics.NewEdgeFlap(g.Edges(), 0.005, 0.1, uint64(50+r))
			if err != nil {
				b.Fatal(err)
			}
			reps[r] = radio.Replica{Protocols: protos, Topology: dynamics.Compose(churn, flap)}
		}
		e, err := radio.NewBatchEngine(g, a, reps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(int64(b.N))
	}

	// The CSEEK bank alone: 64 machines stepped through their whole
	// schedule by ActRange/ObserveRange, with no engine. A listener
	// hears a fixed pattern over Δ neighbors instead of a resolved
	// channel, so the time is the protocol's own: schedule stepping, rng
	// draws and the first-heard records. One op is one node-slot; a new
	// set of machines is built whenever the schedule ends.
	cseekBankBench := func(b *testing.B) {
		const n, delta = 64, 16
		p := core.Params{N: n, C: 4, K: 2, KMax: 2, Delta: delta}
		acts := make([]radio.Action, n)
		dels := make([]radio.Delivery, n)
		var bank *core.SeekBank
		var slot, total int64
		runs := uint64(0)
		b.ReportAllocs()
		for done := 0; done < b.N; done += n {
			if slot == total {
				master := rng.New(runs)
				runs++
				seeks := make([]*core.CSeek, n)
				for u := range seeks {
					s, err := core.NewCSeek(p, core.Env{ID: radio.NodeID(u), C: p.C, Rand: master.Split(uint64(u))})
					if err != nil {
						b.Fatal(err)
					}
					seeks[u] = s
				}
				bank = core.NewSeekBank(seeks)
				slot, total = 0, seeks[0].TotalSlots()
			}
			bank.ActRange(slot, 0, n, acts)
			for u := range dels {
				dels[u].From = -1
				if k := int((slot*131 + int64(u)*29) % (2 * delta)); acts[u].Kind == radio.Listen && k < delta {
					dels[u].From = radio.NodeID((u + 1 + k) % n)
				}
			}
			bank.ObserveRange(slot, 0, n, dels)
			slot++
		}
	}

	// The whole draw of a mobile-sized bursty Poisson primary user
	// (perfbench's dynamic-service mobile variant: 130 channels over
	// 175 680 slots): a read of the last slot of the last channel draws
	// every slot before it. Construction, which draws nothing, stays
	// off the clock.
	scheduleFillBench := func(b *testing.B) {
		const channels, horizon = 130, 175680
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := spectrum.NewPoisson(channels, horizon, 0.012, 25, spectrum.HoldGeometric, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			p.Jammed(horizon-1, channels-1)
		}
	}

	// Scenario assembly over a prebuilt 1024-node, 8-regular-ish graph:
	// the SharedCore assignment (c = 8, k = 2) and NewScenarioFromParts,
	// which measures the realized overlap, Δ and the diameter D. Every
	// sweep variant and every shard pays this once; the graph's own
	// generation stays off the clock.
	assembleBench := func(b *testing.B) {
		const n, c, k = 1024, 8, 2
		g, err := graph.RandomRegularish(n, 8, rng.New(4))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := chanassign.SharedCore(n, c, k, rng.New(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := crn.NewScenarioFromParts(g, a); err != nil {
				b.Fatal(err)
			}
		}
	}

	specs := []benchSpec{
		{
			name:        "engine/slot",
			reps:        3,
			nodeSlotsOp: 64,
			fn:          engineBench,
		},
		{
			name:        "engine/slot-dynamics",
			reps:        3,
			nodeSlotsOp: 64,
			fn:          dynamicsBench,
		},
		{
			name:        "engine/slot-kernel",
			reps:        3,
			nodeSlotsOp: 64,
			fn:          kernelBench,
		},
		{
			name:        "engine/slot-range",
			reps:        3,
			nodeSlotsOp: 64,
			fn:          rangeBench,
		},
		{
			name:        "engine/slot-batch",
			reps:        3,
			nodeSlotsOp: batchReplicas * 64,
			fn:          batchBench,
		},
		{
			name:        "engine/slot-batch-dynamics",
			reps:        3,
			nodeSlotsOp: batchReplicas * 64,
			fn:          batchDynBench,
		},
		{
			name:        "protocol/cseek-bank",
			nodeSlotsOp: 1,
			fn:          cseekBankBench,
		},
		{
			name: "spectrum/schedule-fill",
			fn:   scheduleFillBench,
		},
		{
			name: "scenario/assemble",
			fn:   assembleBench,
		},
		{
			name: "service/roundtrip",
			fn:   roundtripBench,
		},
		{
			name:        "primitive/cseek",
			nodeSlotsOp: float64(gnp.N()) * float64(cseekSlots),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cseek.Run(ctx, gnp, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:        "primitive/cseek-dynamic",
			nodeSlotsOp: float64(mobile.N()) * float64(mobileSlots),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cseek.Run(ctx, mobile, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:        "primitive/cgcast",
			nodeSlotsOp: float64(chain.N()) * float64(cgcastSlots),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cgcast.Run(ctx, chain, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
	// The sweep scaling axis. Worker counts beyond the host's
	// GOMAXPROCS cannot add parallelism — goroutines just time-share
	// the same CPUs and the measurement restates the serial number —
	// so those points are SKIPped with an explicit note instead of
	// being reported as a deceptively flat curve.
	maxProcs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		spec := benchSpec{
			name:        fmt.Sprintf("sweep/workers=%d", workers),
			nodeSlotsOp: 32 * float64(gnp.N()) * float64(cseekSlots),
			fn: func(b *testing.B) {
				spec := crn.SweepSpec{
					Primitive: crn.Discovery(crn.CSeek),
					Variants:  []crn.Variant{{Name: "gnp16", Scenario: gnp}},
					Seeds:     32,
					BaseSeed:  11,
					Workers:   workers,
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := crn.Sweep(ctx, spec)
					if err != nil {
						b.Fatal(err)
					}
					if res.Aggregates[0].Failures != 0 {
						b.Fatalf("%d sweep failures", res.Aggregates[0].Failures)
					}
				}
			},
		}
		if workers > maxProcs {
			spec.skip = fmt.Sprintf("workers=%d exceeds GOMAXPROCS=%d: no parallelism to measure", workers, maxProcs)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// benchTopology is the shared 64-node instance behind the engine/*
// benchmarks, so kernel and batch numbers are directly comparable to
// the random-traffic slot loop.
func benchTopology() (*graph.Graph, *chanassign.Assignment, error) {
	g, err := graph.GNP(64, 0.15, rng.New(2))
	if err != nil {
		return nil, nil, err
	}
	a, err := chanassign.SharedPool(64, 8, 2, 30, rng.New(3))
	if err != nil {
		return nil, nil, err
	}
	return g, a, nil
}

// benchRandomProto is a never-finishing random-traffic protocol for
// the engine benchmark.
func benchRandomProto(r *rng.Source, c int) radio.Protocol {
	return &randProto{r: r, c: c}
}

type randProto struct {
	r    *rng.Source
	c    int
	bank *randBank
	idx  int
}

func (p *randProto) Act(_ int64) radio.Action {
	switch p.r.Intn(3) {
	case 0:
		return radio.Action{Kind: radio.Idle}
	case 1:
		return radio.Action{Kind: radio.Listen, Ch: p.r.Intn(p.c)}
	default:
		return radio.Action{Kind: radio.Broadcast, Ch: p.r.Intn(p.c)}
	}
}

func (p *randProto) Observe(_ int64, _ radio.Delivery) {}
func (p *randProto) Done() bool                        { return false }

// RangeBank implements radio.RangeNode.
func (p *randProto) RangeBank() (radio.RangeProtocol, int) {
	if p.bank == nil {
		return nil, 0
	}
	return p.bank, p.idx
}

// randBank is the range-ABI bank over the random-traffic protocols:
// the engine/slot-range entry, isolating what the batch-aware dispatch
// buys on realistic (rng-drawing) protocols versus engine/slot.
type randBank struct{ nodes []*randProto }

func (b *randBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.nodes[u].Act(slot)
	}
}

func (b *randBank) ObserveRange(_ int64, _, _ int, _ []radio.Delivery) {}

// benchRandomBankedProtos builds n random-traffic protocols behind one
// shared bank (range dispatch).
func benchRandomBankedProtos(n, c int, master *rng.Source) []radio.Protocol {
	bank := &randBank{nodes: make([]*randProto, n)}
	protos := make([]radio.Protocol, n)
	for i := range protos {
		bank.nodes[i] = &randProto{r: master.Split(uint64(i)), c: c, bank: bank, idx: i}
		protos[i] = bank.nodes[i]
	}
	return protos
}

// kernelProto is a deterministic scripted protocol: the node's role
// and channel rotate arithmetically with (id, slot), so Act costs a
// few ALU ops instead of rng draws, and the benchmark's time is spent
// in the engine kernel rather than the protocol. It never finishes and
// declares so via FixedSchedule, which lets the engine skip the
// per-slot Done poll. The per-node state lives in the bank's flat
// arrays either way; banked only controls whether the engine is told
// about the bank (range vs per-node dispatch of the same machines).
type kernelProto struct {
	id     int
	bank   *kernelBank
	banked bool
}

func (p *kernelProto) Act(_ int64) radio.Action {
	b := p.bank
	s := int(b.slots[p.id])
	b.slots[p.id] = int64(s) + 1
	switch (p.id + s) & 3 {
	case 0:
		return radio.Action{Kind: radio.Broadcast, Ch: s & b.cMask}
	case 1, 2:
		return radio.Action{Kind: radio.Listen, Ch: (p.id + s) & b.cMask}
	default:
		return radio.Action{Kind: radio.Idle}
	}
}

func (p *kernelProto) Observe(_ int64, _ radio.Delivery) {}
func (p *kernelProto) Done() bool                        { return false }
func (p *kernelProto) MinDoneSlots() int64               { return 1 << 62 }

// RangeBank implements radio.RangeNode.
func (p *kernelProto) RangeBank() (radio.RangeProtocol, int) {
	if !p.banked {
		return nil, 0
	}
	return p.bank, p.id
}

// kernelBank is the range-ABI bank over the kernel workload: per-node
// state is one flat slice of slot counters, so ActRange is one
// branch-plus-store pass with no per-node pointer chase, and the
// observe side is a no-op — the per-protocol cost floor, leaving the
// benchmark to measure the engine kernel alone. This is the dispatch
// mode behind the ROADMAP's 100M node-slots/sec target.
type kernelBank struct {
	// cMask is c-1: the benchmark pins c to a power of two so the
	// channel rotation is a mask, not a hardware divide per node-slot
	// (a DIV is ~half the whole per-node kernel budget).
	cMask int
	slots []int64
}

func (b *kernelBank) ActRange(_ int64, lo, hi int, acts []radio.Action) {
	cMask := b.cMask
	slots := b.slots
	for u := lo; u < hi; u++ {
		s := int(slots[u])
		slots[u] = int64(s) + 1
		switch (u + s) & 3 {
		case 0:
			acts[u] = radio.Action{Kind: radio.Broadcast, Ch: s & cMask}
		case 1, 2:
			acts[u] = radio.Action{Kind: radio.Listen, Ch: (u + s) & cMask}
		default:
			acts[u] = radio.Action{Kind: radio.Idle}
		}
	}
}

func (b *kernelBank) ObserveRange(_ int64, _, _ int, _ []radio.Delivery) {}

// kernelProtos builds the scripted kernel workload; banked shares a
// kernelBank across the set (range dispatch), matching how the facade
// now runs the core protocols.
func kernelProtos(n, c int, banked bool) []radio.Protocol {
	if c&(c-1) != 0 {
		panic("kernelProtos: c must be a power of two")
	}
	bank := &kernelBank{cMask: c - 1, slots: make([]int64, n)}
	protos := make([]radio.Protocol, n)
	for i := range protos {
		protos[i] = &kernelProto{id: i, bank: bank, banked: banked}
	}
	return protos
}

// Comparison thresholds for -compare. Wall time on shared CI runners
// is noisy, so time regressions only warn; allocation counts are
// nearly deterministic, so they gate.
const (
	allocFailFactor = 1.5
	allocFailSlack  = 2
	timeWarnFactor  = 1.5
)

// allocLimit is generous for real allocation counts (1.5× plus a
// small slack for integer jitter on tiny baselines) but exact for
// allocation-free ones: allocs/op is already amortized across the
// benchmark's iterations — one-off setup allocations round to 0 —
// so a 0-alloc hot loop reporting even 1 alloc/op is a real
// per-iteration regression, not noise.
func allocLimit(baseline int64) int64 {
	if baseline == 0 {
		return 0
	}
	return int64(float64(baseline)*allocFailFactor) + allocFailSlack
}

// compareReports checks current against baseline: it returns an error
// naming every allocation regression and prints warnings for wall-time
// regressions. Benchmarks without a baseline entry (or baselines
// without a current run) are noted but never fail — renaming a
// benchmark should not brick CI. A baseline from another host (see
// BenchReport.host) says nothing about this host's times, so one NOTE
// replaces the wall-time warnings; allocation counts do not depend on
// the host and gate as usual.
func compareReports(w io.Writer, baseline, current BenchReport) error {
	base := make(map[string]BenchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	sameHost := baseline.host() == current.host()
	if !sameHost {
		fmt.Fprintf(w, "NOTE  the baseline ran on another host (%s; this run: %s): ns/op not compared, allocs/op gate as usual\n",
			baseline.host(), current.host())
	}
	var regressions []string
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "NOTE  %-22s has no baseline entry (new or renamed benchmark; not gated)\n", cur.Name)
			continue
		}
		delete(base, cur.Name)
		if cur.Skipped || b.Skipped {
			// A benchmark skipped on either side has no number to
			// compare — e.g. a scaling point beyond this host's
			// GOMAXPROCS. Never a failure.
			fmt.Fprintf(w, "SKIP  %-22s not compared (current: %s, baseline: %s)\n",
				cur.Name, skipState(cur), skipState(b))
			continue
		}
		if limit := allocLimit(b.AllocsPerOp); cur.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op, baseline %d (limit %d)", cur.Name, cur.AllocsPerOp, b.AllocsPerOp, limit))
			fmt.Fprintf(w, "FAIL  %-22s %d allocs/op exceeds limit %d (baseline %d)\n",
				cur.Name, cur.AllocsPerOp, limit, b.AllocsPerOp)
		}
		if sameHost && b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*timeWarnFactor {
			fmt.Fprintf(w, "WARN  %-22s %.0f ns/op is %.2fx baseline %.0f ns/op (time regressions warn only)\n",
				cur.Name, cur.NsPerOp, cur.NsPerOp/b.NsPerOp, b.NsPerOp)
		}
	}
	for _, r := range baseline.Results {
		if _, left := base[r.Name]; left {
			fmt.Fprintf(w, "NOTE  %-22s in baseline but not in this run (not selected by -run, removed or renamed; not gated)\n", r.Name)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d allocation regression(s) against baseline:\n  %s",
			len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "compare: no allocation regressions against baseline\n")
	return nil
}

func skipState(r BenchResult) string {
	if !r.Skipped {
		return "ran"
	}
	if r.Note != "" {
		return "skipped — " + r.Note
	}
	return "skipped"
}

// loadBaseline reads a committed BenchReport (e.g. BENCH_4.json).
func loadBaseline(path string) (BenchReport, error) {
	var report BenchReport
	doc, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(doc, &report); err != nil {
		return report, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(report.Results) == 0 {
		return report, fmt.Errorf("baseline %s has no results", path)
	}
	return report, nil
}

// profileName maps a benchmark name to a profile file stem
// ("engine/slot-kernel" -> "engine-slot-kernel").
func profileName(name string) string {
	return strings.NewReplacer("/", "-", "=", "-").Replace(name)
}

// specProfiler brackets one benchmark spec's measurement with CPU
// and/or heap profiling, writing per-spec pprof files into the given
// directories (created on demand). The CPU profile covers every rep of
// the spec; the heap profile is a post-run snapshot after a forced GC,
// so it shows steady-state retention rather than transient garbage.
type specProfiler struct {
	cpuDir, memDir string
	cpuFile        *os.File
}

func (p *specProfiler) start(name string) error {
	if p.cpuDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(p.cpuDir, profileName(name)+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

func (p *specProfiler) stop(name string) error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if p.memDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(p.memDir, profileName(name)+".mem.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// selectSpecs returns the specs named in list, comma-separated entry
// names, in suite order; an empty list selects the whole suite. A name
// the suite does not have is an error.
func selectSpecs(specs []benchSpec, list string) ([]benchSpec, error) {
	if list == "" {
		return specs, nil
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown benchmark entry %q (entries: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var out []benchSpec
	for _, s := range specs {
		if want[s.name] {
			out = append(out, s)
		}
	}
	return out, nil
}

// runBench executes the benchmark suite, or the entries list names
// (see selectSpecs), and writes the report. format is "json" or "text"; out optionally names a file the JSON
// report is additionally written to. In json mode w carries only the
// JSON document (progress lines go to stderr), so the output pipes
// cleanly into jq and friends.
//
// compare optionally names a baseline report (a committed BENCH_*.json)
// to gate against: allocation regressions fail (after the report and
// out file are written, so CI can still archive them), wall-time
// regressions warn. This is the CI bench-regression gate.
//
// cpuDir / memDir, when non-empty, name directories that receive one
// CPU / heap pprof file per benchmark entry (see specProfiler).
func runBench(w io.Writer, list, format, out, compare, cpuDir, memDir string) error {
	var baseline BenchReport
	if compare != "" {
		// Load before the (minutes-long) suite so a bad path fails fast.
		var err error
		if baseline, err = loadBaseline(compare); err != nil {
			return err
		}
	}
	for _, dir := range []string{cpuDir, memDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	profiler := &specProfiler{cpuDir: cpuDir, memDir: memDir}
	specs, err := benchSuite()
	if err != nil {
		return err
	}
	if specs, err = selectSpecs(specs, list); err != nil {
		return err
	}
	progress := w
	if format == "json" {
		progress = os.Stderr
	}
	report := BenchReport{CPU: cpuModel(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	fmt.Fprintf(progress, "host: %s\n", report.host())
	for _, spec := range specs {
		if spec.skip != "" {
			report.Results = append(report.Results, BenchResult{
				Name:    spec.name,
				Skipped: true,
				Note:    spec.skip,
			})
			fmt.Fprintf(progress, "%-22s SKIP: %s\n", spec.name, spec.skip)
			continue
		}
		if err := profiler.start(spec.name); err != nil {
			return err
		}
		r := testing.Benchmark(spec.fn)
		for rep := 1; rep < spec.reps; rep++ {
			r2 := testing.Benchmark(spec.fn)
			if float64(r2.T.Nanoseconds())*float64(r.N) < float64(r.T.Nanoseconds())*float64(r2.N) {
				r = r2
			}
		}
		if err := profiler.stop(spec.name); err != nil {
			return err
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		res := BenchResult{
			Name:        spec.name,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		if spec.nodeSlotsOp > 0 && ns > 0 {
			res.NodeSlotsPerSec = spec.nodeSlotsOp / (ns / 1e9)
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(progress, "%-22s %14.0f ns/op %10d allocs/op %14.3g node-slots/s\n",
			spec.name, res.NsPerOp, res.AllocsPerOp, res.NodeSlotsPerSec)
	}
	if format == "json" || out != "" {
		doc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		doc = append(doc, '\n')
		if format == "json" {
			if _, err := w.Write(doc); err != nil {
				return err
			}
		}
		if out != "" {
			if err := os.WriteFile(out, doc, 0o644); err != nil {
				return err
			}
		}
	}
	if compare != "" {
		return compareReports(progress, baseline, report)
	}
	return nil
}
