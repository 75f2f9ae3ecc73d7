package crn

import (
	"context"

	"crn/internal/core"
)

// This file keeps the pre-Primitive API alive as thin shims over the
// new surface. Everything here is deprecated; see README.md for the
// table mapping each entry point to its replacement.

// ScenarioConfig describes a generated scenario.
//
// Deprecated: use New with ScenarioOptions (WithTopology, WithNodes,
// WithChannels, ...).
type ScenarioConfig struct {
	// Topology selects the graph generator.
	Topology Topology
	// N is the number of nodes.
	N int
	// C is the number of channels per node.
	C int
	// K is the guaranteed number of shared channels per neighbor pair.
	K int
	// KMax, when > K, produces a heterogeneous assignment in which
	// roughly half the edges share KMax channels. Zero means KMax = K.
	KMax int
	// Density is the edge probability for GNP and the radius for
	// UnitDisk; zero picks a sensible default.
	Density float64
	// Seed drives scenario generation.
	Seed uint64
	// Tuning overrides the algorithms' constant multipliers; nil uses
	// defaults.
	Tuning *core.Tuning
}

// NewScenario generates a scenario from config.
//
// Deprecated: use New with ScenarioOptions.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	return newGeneratedScenario(cfg)
}

// SetPeriodicPrimaryUsers installs duty-cycled primary users: every
// global channel is occupied for onSlots out of every period slots,
// with the phase staggered across channels so some spectrum is always
// free. Pass onSlots = 0 to clear.
//
// Deprecated: pass WithPeriodicPrimaryUsers to New.
func (s *Scenario) SetPeriodicPrimaryUsers(period, onSlots int64) error {
	return s.setPeriodicPrimaryUsers(period, onSlots)
}

// SetMarkovPrimaryUsers installs bursty primary users: each global
// channel flips between idle and occupied with the given per-slot
// transition probabilities (idle→busy pBusy, busy→idle pFree), over a
// horizon of `horizon` slots, idle beyond it (0 picks a horizon
// generous enough for a CSEEK run).
//
// Deprecated: pass WithMarkovPrimaryUsers to New.
func (s *Scenario) SetMarkovPrimaryUsers(pBusy, pFree float64, horizon int64, seed uint64) error {
	return s.setMarkovPrimaryUsers(pBusy, pFree, horizon, seed)
}

// SetJammer installs a custom primary-user model (nil to clear).
//
// Deprecated: pass WithJammer to New.
func (s *Scenario) SetJammer(j Jammer) { s.setJammer(j) }

// DiscoveryResult reports one neighbor-discovery run.
//
// Deprecated: use the Result envelope returned by the Discovery and
// KDiscovery primitives.
type DiscoveryResult struct {
	// Algorithm is the algorithm that ran.
	Algorithm string `json:"algorithm"`
	// ScheduleSlots is the protocol's fixed schedule length.
	ScheduleSlots int64 `json:"scheduleSlots"`
	// CompletedAtSlot is the slot by which every node knew all its
	// neighbors, or -1 if the schedule ended first.
	CompletedAtSlot int64 `json:"completedAtSlot"`
	// PairsDiscovered counts directed (node, neighbor) discoveries.
	PairsDiscovered int `json:"pairsDiscovered"`
	// PairsTotal is the number of directed neighbor pairs.
	PairsTotal int `json:"pairsTotal"`
	// Neighbors[u] lists the identities node u discovered.
	Neighbors [][]int `json:"neighbors"`
}

// AllDiscovered reports whether every node found every neighbor.
func (r *DiscoveryResult) AllDiscovered() bool { return r.PairsDiscovered == r.PairsTotal }

func asDiscoveryResult(res *Result) *DiscoveryResult {
	d := res.Discovery
	return &DiscoveryResult{
		Algorithm:       d.Algorithm,
		ScheduleSlots:   res.ScheduleSlots,
		CompletedAtSlot: res.CompletedAtSlot,
		PairsDiscovered: d.PairsDiscovered,
		PairsTotal:      d.PairsTotal,
		Neighbors:       d.Neighbors,
	}
}

// Discover runs a neighbor-discovery algorithm on the scenario.
//
// Deprecated: use Discovery(algo).Run(ctx, s, seed).
func (s *Scenario) Discover(algo Algorithm, seed uint64) (*DiscoveryResult, error) {
	res, err := Discovery(algo).Run(context.Background(), s, seed)
	if err != nil {
		return nil, err
	}
	return asDiscoveryResult(res), nil
}

// DiscoverK runs CKSEEK: every node finds (at least) all neighbors
// sharing at least khat channels with it. The result counts only those
// "good" pairs.
//
// Deprecated: use KDiscovery(khat).Run(ctx, s, seed).
func (s *Scenario) DiscoverK(khat int, seed uint64) (*DiscoveryResult, error) {
	res, err := KDiscovery(khat).Run(context.Background(), s, seed)
	if err != nil {
		return nil, err
	}
	return asDiscoveryResult(res), nil
}

// BroadcastResult reports one CGCAST run.
//
// Deprecated: use the Result envelope returned by the GlobalBroadcast
// primitive.
type BroadcastResult struct {
	// TotalSlots is setup plus the full dissemination schedule.
	TotalSlots int64 `json:"totalSlots"`
	// SetupSlots covers discovery, channel fixing, coloring, announce.
	SetupSlots int64 `json:"setupSlots"`
	// DissemScheduleSlots is the dissemination stage's fixed length.
	DissemScheduleSlots int64 `json:"dissemScheduleSlots"`
	// AllInformedAtSlot is the dissemination slot after which every
	// node held the message (-1 if some node finished uninformed).
	AllInformedAtSlot int64 `json:"allInformedAtSlot"`
	// AllInformed reports whether every node got the message.
	AllInformed bool `json:"allInformed"`
	// EdgesColored / EdgesDropped describe the realized edge coloring.
	EdgesColored int `json:"edgesColored"`
	EdgesDropped int `json:"edgesDropped"`
	// ColoringValid reports properness of the realized coloring.
	ColoringValid bool `json:"coloringValid"`
}

// Broadcast runs CGCAST from the given source node.
//
// Deprecated: use GlobalBroadcast(source, message, opts...).Run.
func (s *Scenario) Broadcast(source int, message any, seed uint64, opts ...BroadcastOption) (*BroadcastResult, error) {
	res, err := GlobalBroadcast(source, message, opts...).Run(context.Background(), s, seed)
	if err != nil {
		return nil, err
	}
	b := res.Broadcast
	return &BroadcastResult{
		TotalSlots:          res.ScheduleSlots,
		SetupSlots:          b.SetupSlots,
		DissemScheduleSlots: b.DissemScheduleSlots,
		AllInformedAtSlot:   res.CompletedAtSlot,
		AllInformed:         b.AllInformed,
		EdgesColored:        b.EdgesColored,
		EdgesDropped:        b.EdgesDropped,
		ColoringValid:       b.ColoringValid,
	}, nil
}

// FloodResult reports one flooding-baseline run.
//
// Deprecated: use the Result envelope returned by the Flooding
// primitive.
type FloodResult struct {
	// AllInformedAtSlot is the slot after which every node held the
	// message, or -1 if the budget ran out first.
	AllInformedAtSlot int64 `json:"allInformedAtSlot"`
	// AllInformed reports whether every node got the message.
	AllInformed bool `json:"allInformed"`
}

// Flood runs the naive flooding broadcast baseline.
//
// Deprecated: use Flooding(source, message).Run.
func (s *Scenario) Flood(source int, message any, seed uint64) (*FloodResult, error) {
	res, err := Flooding(source, message).Run(context.Background(), s, seed)
	if err != nil {
		return nil, err
	}
	return &FloodResult{AllInformedAtSlot: res.CompletedAtSlot, AllInformed: res.Completed}, nil
}
