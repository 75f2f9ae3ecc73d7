// Package crn is the public entry point of the cognitive-radio-network
// communication-primitives library, a reproduction of "Communication
// Primitives in Cognitive Radio Networks" (Gilbert, Kuhn, Zheng;
// PODC 2017).
//
// The model: n nodes, each with a transceiver that can access c
// channels (different nodes can access different channels, with no
// global channel labels); neighbors share between k and kmax channels;
// time is slotted; a listener hears a message iff exactly one neighbor
// broadcasts on its channel; there is no collision detection.
//
// The API has three layers:
//
//   - Scenarios. New assembles a network scenario from functional
//     ScenarioOptions (WithTopology, WithChannels, WithJammer, ...);
//     NewCustomScenario wires an explicit topology and channel sets.
//
//   - Primitives. Every algorithm of the paper is a Primitive — a
//     named, runnable unit returning one common Result envelope:
//     Discovery (CSEEK, Theorem 4, plus the naive and uniform-sweep
//     baselines), KDiscovery (CKSEEK, Theorem 6), GlobalBroadcast
//     (CGCAST, Theorem 9), and Flooding (the naive broadcast
//     baseline). Run accepts a context.Context and stops early when it
//     is cancelled.
//
//   - Sweeps. Sweep fans one Primitive out over seeds × scenario
//     variants on a bounded worker pool, with deterministic per-run
//     seed derivation: the aggregates are byte-identical regardless of
//     worker count. PlanShards / RunShard / MergeShards distribute the
//     same job grid across processes or hosts — merged shard results
//     are byte-identical to the single-process sweep (cmd/crnsweep
//     drives this over a resumable JSON manifest).
//
// See DESIGN.md for the architecture and README.md for a quickstart.
// The experiment harness behind cmd/crnbench regenerates the
// reproduction tables for every claim in the paper.
package crn
