package crn

import "crn/internal/stats"

// Result is the common envelope every Primitive returns: the schedule
// budget, when (and whether) the primitive's goal predicate was
// reached, and one per-primitive detail block. Consumers that only
// care about slots and completion — the sweep engine, cmd/crnsim's
// output path, the experiment harness — never have to switch over
// primitive-specific structs.
type Result struct {
	// Primitive is the name of the primitive that ran (e.g. "cseek",
	// "ckseek", "cgcast", "flood").
	Primitive string `json:"primitive"`
	// ScheduleSlots is the primitive's fixed slot budget. For
	// GlobalBroadcast it is setup plus the dissemination schedule.
	ScheduleSlots int64 `json:"scheduleSlots"`
	// CompletedAtSlot is the slot by which the primitive's goal held
	// (all neighbors known, all good pairs found, every node informed),
	// or -1 if the schedule ended first. For broadcast primitives the
	// slot is relative to the dissemination stage.
	CompletedAtSlot int64 `json:"completedAtSlot"`
	// Completed reports whether the goal was reached within the budget.
	Completed bool `json:"completed"`

	// Discovery carries neighbor-discovery detail (Discovery and
	// KDiscovery primitives).
	Discovery *DiscoveryDetail `json:"discovery,omitempty"`
	// Broadcast carries broadcast detail (GlobalBroadcast and Flooding
	// primitives).
	Broadcast *BroadcastDetail `json:"broadcast,omitempty"`
	// Spectrum carries the run's radio/spectrum accounting — how much
	// listening the primitive did and how much of it primary users or
	// an adversary jammed. For GlobalBroadcast it covers the stages
	// that ran in the radio model (dissemination; setup too under
	// WithFullFidelity).
	Spectrum *SpectrumDetail `json:"spectrum,omitempty"`
	// Topology carries the run's topology-dynamics accounting; nil for
	// the paper's static model (no WithChurn / WithEdgeFlap /
	// WithMobility option installed).
	Topology *TopologyDetail `json:"topology,omitempty"`
}

// SpectrumDetail reports one run's radio-level spectrum accounting.
type SpectrumDetail struct {
	// Listens counts listener-slots.
	Listens int64 `json:"listens"`
	// Deliveries counts frames heard by listeners.
	Deliveries int64 `json:"deliveries"`
	// Collisions counts listener-slots lost to simultaneous
	// broadcasting neighbors.
	Collisions int64 `json:"collisions"`
	// JammedListens counts listener-slots lost to primary users or an
	// adversary — the jammed-slot accounting for spectrum-dynamics
	// experiments.
	JammedListens int64 `json:"jammedListens"`
}

// TopologyDetail reports one run's topology dynamics: how much the
// graph changed underneath the protocols and what it cost them.
type TopologyDetail struct {
	// EdgeAdds / EdgeRemoves count edge mutations actually applied.
	EdgeAdds    int64 `json:"edgeAdds"`
	EdgeRemoves int64 `json:"edgeRemoves"`
	// NodeJoins / NodeLeaves count up/down transitions; DownNodeSlots
	// counts node-slots spent down (neither transmitting nor
	// observing).
	NodeJoins     int64 `json:"nodeJoins"`
	NodeLeaves    int64 `json:"nodeLeaves"`
	DownNodeSlots int64 `json:"downNodeSlots"`
	// PartitionLosses counts listener-slots in which the static base
	// topology would have delivered a frame but the dynamic topology
	// did not deliver it — deliveries lost to churned-away edges.
	PartitionLosses int64 `json:"partitionLosses"`
	// RediscoveredPairs counts directed (node, neighbor) discoveries
	// made after the neighbor had gone down and rejoined —
	// re-discovery under churn. RediscoveryLatencyTotal sums, over
	// those pairs, the engine slots from the neighbor's rejoin to the
	// discovery. Discovery primitives only; zero elsewhere.
	RediscoveredPairs       int   `json:"rediscoveredPairs,omitempty"`
	RediscoveryLatencyTotal int64 `json:"rediscoveryLatencyTotal,omitempty"`
}

// MeanRediscoveryLatency returns the mean slots from a neighbor's
// rejoin to its re-discovery, or -1 when nothing was re-discovered.
func (d *TopologyDetail) MeanRediscoveryLatency() float64 {
	if d.RediscoveredPairs == 0 {
		return -1
	}
	return float64(d.RediscoveryLatencyTotal) / float64(d.RediscoveredPairs)
}

// DiscoveryDetail reports one neighbor-discovery run. For KDiscovery
// the pair counts refer to the "good" (≥ k̂ shared channels) pairs.
type DiscoveryDetail struct {
	// Algorithm is the algorithm that ran.
	Algorithm string `json:"algorithm"`
	// PairsDiscovered counts directed (node, neighbor) discoveries.
	PairsDiscovered int `json:"pairsDiscovered"`
	// PairsTotal is the number of directed neighbor pairs.
	PairsTotal int `json:"pairsTotal"`
	// Neighbors[u] lists the identities node u discovered.
	Neighbors [][]int `json:"neighbors"`
	// FirstHeard[u][i] is the slot node u first heard Neighbors[u][i]
	// in, counted on u's own clock, which stops while u is down.
	FirstHeard [][]int64 `json:"firstHeard,omitempty"`
}

// AllDiscovered reports whether every pair was found.
func (d *DiscoveryDetail) AllDiscovered() bool { return d.PairsDiscovered == d.PairsTotal }

// BroadcastDetail reports one broadcast run. The coloring fields are
// meaningful only for GlobalBroadcast; Flooding has no setup stage and
// leaves them zero.
type BroadcastDetail struct {
	// SetupSlots covers discovery, channel fixing, coloring, announce
	// (zero for Flooding).
	SetupSlots int64 `json:"setupSlots"`
	// DissemScheduleSlots is the dissemination stage's fixed length.
	DissemScheduleSlots int64 `json:"dissemScheduleSlots"`
	// AllInformed reports whether every node got the message.
	AllInformed bool `json:"allInformed"`
	// EdgesColored / EdgesDropped describe the realized edge coloring.
	EdgesColored int `json:"edgesColored"`
	EdgesDropped int `json:"edgesDropped"`
	// ColoringValid reports properness of the realized coloring.
	ColoringValid bool `json:"coloringValid"`
}

// Metrics returns the run's named numeric measurements — the values
// Sweep aggregates across runs. "timeToComplete" is CompletedAtSlot
// censored at the schedule the slot is measured against (the
// conservative treatment of runs whose schedule ended before the goal
// held); for broadcast primitives both use the dissemination-stage
// origin, so completed and censored runs stay on one scale.
// "completed" is a 0/1 indicator.
func (r *Result) Metrics() map[string]float64 {
	budget := r.ScheduleSlots
	if r.Broadcast != nil {
		budget = r.Broadcast.DissemScheduleSlots
	}
	timeTo := float64(budget)
	if r.CompletedAtSlot >= 0 {
		timeTo = float64(r.CompletedAtSlot)
	}
	m := map[string]float64{
		"scheduleSlots":  float64(r.ScheduleSlots),
		"timeToComplete": timeTo,
		"completed":      b2f(r.Completed),
	}
	if d := r.Discovery; d != nil {
		m["pairsDiscovered"] = float64(d.PairsDiscovered)
		m["pairsTotal"] = float64(d.PairsTotal)
	}
	if b := r.Broadcast; b != nil {
		m["setupSlots"] = float64(b.SetupSlots)
		m["dissemScheduleSlots"] = float64(b.DissemScheduleSlots)
		m["allInformed"] = b2f(b.AllInformed)
	}
	if sp := r.Spectrum; sp != nil {
		m["listens"] = float64(sp.Listens)
		m["jammedListens"] = float64(sp.JammedListens)
		m["deliveries"] = float64(sp.Deliveries)
		m["collisions"] = float64(sp.Collisions)
	}
	if tp := r.Topology; tp != nil {
		m["edgeChanges"] = float64(tp.EdgeAdds + tp.EdgeRemoves)
		m["nodeChurnEvents"] = float64(tp.NodeJoins + tp.NodeLeaves)
		m["downNodeSlots"] = float64(tp.DownNodeSlots)
		m["partitionLosses"] = float64(tp.PartitionLosses)
		m["rediscoveredPairs"] = float64(tp.RediscoveredPairs)
		if tp.RediscoveredPairs > 0 {
			m["rediscoveryLatencyMean"] = tp.MeanRediscoveryLatency()
		}
	}
	return m
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// The sweep result envelope lives alongside Result for the same
// reason Result exists: every consumer of sweep output — the in-
// process engine, the sharded cmd/crnsweep pipeline, CI byte-diffs —
// sees one JSON shape, whichever execution path produced it.

// Summary is the per-metric aggregate the sweep engine reports:
// mean, standard deviation, median and quartiles of one metric across
// the runs of one variant.
type Summary = stats.Summary

// Run is one completed (or failed) simulation inside a sweep.
type Run struct {
	// Variant is the variant's resolved name.
	Variant string `json:"variant"`
	// Index is the seed index within the variant, in [0, Seeds).
	Index int `json:"index"`
	// Seed is the derived per-run seed.
	Seed uint64 `json:"seed"`
	// Completed reports whether the run's goal predicate held.
	Completed bool `json:"completed"`
	// Metrics are the run's numeric measurements (Result.Metrics);
	// nil when the run failed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Result is the full envelope, retained only when
	// SweepSpec.KeepResults is set (and the run succeeded).
	Result *Result `json:"result,omitempty"`
	// Err is the run's error message, empty on success.
	Err string `json:"err,omitempty"`
}

// Aggregate summarizes one variant's runs.
type Aggregate struct {
	// Variant is the variant's resolved name.
	Variant string `json:"variant"`
	// Primitive is the primitive that ran.
	Primitive string `json:"primitive"`
	// Runs / Failures / Completed count the variant's runs, the runs
	// that errored, and the runs whose goal predicate held.
	Runs      int `json:"runs"`
	Failures  int `json:"failures"`
	Completed int `json:"completed"`
	// Metrics maps each Result metric (see Result.Metrics) to its
	// summary across the variant's successful runs.
	Metrics map[string]Summary `json:"metrics"`
}

// SweepResult is the outcome of one sweep — whether it ran in one
// process (Sweep) or was stitched back together from shard artifacts
// (MergeShards). The two paths produce byte-identical JSON for the
// same spec.
type SweepResult struct {
	// Aggregates holds one entry per variant, in variant order.
	Aggregates []Aggregate `json:"aggregates"`
	// Runs holds every run in deterministic (variant, index) order.
	Runs []Run `json:"runs"`
	// Batching reports how the sweep's Batch request was actually
	// executed — whether the primitive supports fused batch passes and
	// how many runs went through them. It describes execution strategy,
	// not outcome, so it is deliberately excluded from the JSON shape:
	// batched and sequential sweeps must stay byte-identical on the
	// wire. Nil when the sweep was assembled by MergeShards (shards
	// report their own execution locally).
	Batching *BatchingInfo `json:"-"`
}

// BatchingInfo describes how SweepSpec.Batch was honored. Before this
// report existed, a spec could silently fall back to sequential runs
// (e.g. every dynamic-topology sweep did); now the facade states what
// actually happened.
type BatchingInfo struct {
	// Requested is SweepSpec.Batch as given.
	Requested int
	// Supported reports whether the primitive implements fused batch
	// execution at all.
	Supported bool
	// BatchedRuns counts runs executed inside a fused multi-run engine
	// pass; SequentialRuns counts runs executed one engine at a time
	// (including size-1 chunks at variant boundaries). They sum to the
	// sweep's total runs.
	BatchedRuns    int
	SequentialRuns int
}

// Used reports whether any run actually executed through a fused
// batch pass.
func (b *BatchingInfo) Used() bool { return b != nil && b.BatchedRuns > 0 }
