package crn

import (
	"context"
	"fmt"

	"crn/internal/rng"
)

// ShardPlan deterministically partitions one sweep's job grid into
// contiguous shards that independent processes (or hosts) can execute
// and later merge. The grid is the same one Sweep iterates: job =
// variant*Seeds + index over len(Variants) × Seeds runs, and per-run
// seeds derive from BaseSeed keyed by the grid position alone — so a
// shard reproduces exactly the runs the single-process sweep would
// have executed for its slice, and MergeShards reassembles output
// byte-identical to Sweep's.
//
// The plan carries the resolved identity of the sweep it partitions
// (primitive name, variant names, seed count, base seed). RunShard
// checks the spec it is handed against that identity, so a manifest
// cannot silently be replayed against a drifted spec.
type ShardPlan struct {
	// Primitive is the resolved primitive name (Primitive.Name()).
	Primitive string `json:"primitive"`
	// Variants are the resolved variant names, in variant order.
	Variants []string `json:"variants"`
	// Seeds is the resolved runs-per-variant count (≥ 1).
	Seeds int `json:"seeds"`
	// BaseSeed is the sweep's master seed.
	BaseSeed uint64 `json:"baseSeed"`
	// Shards are the contiguous job ranges, covering [0, total)
	// exactly; shard k executes jobs [Shards[k].Lo, Shards[k].Hi).
	Shards []ShardRange `json:"shards"`
}

// ShardRange is one shard's half-open job range.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ShardResult holds the runs of one executed shard — the unit of work
// a distributed sweep moves between processes.
type ShardResult struct {
	// Shard indexes into the plan's Shards.
	Shard int `json:"shard"`
	// Runs are the shard's runs in job order.
	Runs []Run `json:"runs"`
}

// PlanShards validates spec and splits its job grid into shards
// balanced contiguous ranges (the first total%shards ranges take one
// extra job; ranges are empty when shards exceeds the job count). It
// refuses more than 2^16 shards (maxShards) before allocating any.
// Planning is pure bookkeeping — no simulation runs — so the same
// spec and shard count always produce the same plan, on any machine.
func PlanShards(spec SweepSpec, shards int) (*ShardPlan, error) {
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("crn: shard count %d, want 1 to %d", shards, maxShards)
	}
	rs, err := resolveSweep(spec)
	if err != nil {
		return nil, err
	}
	// Planning builds every variant, though it runs none, so a spec
	// that would fail in some shard is rejected here. Each scenario is
	// dropped once built, so the plan holds one variant's at a time.
	for v := range spec.Variants {
		if err := rs.build(v, v+1); err != nil {
			return nil, err
		}
		rs.scenarios[v] = nil
	}
	plan := &ShardPlan{
		Primitive: spec.Primitive.Name(),
		Variants:  rs.names,
		Seeds:     rs.seeds,
		BaseSeed:  spec.BaseSeed,
		Shards:    make([]ShardRange, shards),
	}
	lo := 0
	for s := range plan.Shards {
		size := rs.total / shards
		if s < rs.total%shards {
			size++
		}
		plan.Shards[s] = ShardRange{Lo: lo, Hi: lo + size}
		lo += size
	}
	return plan, nil
}

// total returns the job-grid size the plan covers.
func (p *ShardPlan) total() int { return len(p.Variants) * p.Seeds }

// validate checks the plan's internal consistency: a positive grid
// and shard ranges that tile [0, total) exactly.
func (p *ShardPlan) validate() error {
	if len(p.Variants) == 0 || p.Seeds < 1 {
		return fmt.Errorf("crn: shard plan has an empty job grid (%d variants × %d seeds)", len(p.Variants), p.Seeds)
	}
	if len(p.Shards) == 0 {
		return fmt.Errorf("crn: shard plan has no shards")
	}
	lo := 0
	for s, r := range p.Shards {
		if r.Lo != lo || r.Hi < r.Lo {
			return fmt.Errorf("crn: shard %d range [%d,%d) does not tile the job grid (expected lo %d)", s, r.Lo, r.Hi, lo)
		}
		lo = r.Hi
	}
	if lo != p.total() {
		return fmt.Errorf("crn: shard ranges cover %d jobs, grid has %d", lo, p.total())
	}
	return nil
}

// checkPlan verifies that plan describes exactly this resolved sweep.
func (rs *resolvedSweep) checkPlan(plan *ShardPlan) error {
	if err := plan.validate(); err != nil {
		return err
	}
	if plan.Primitive != rs.spec.Primitive.Name() {
		return fmt.Errorf("crn: plan primitive %q, spec runs %q", plan.Primitive, rs.spec.Primitive.Name())
	}
	if plan.Seeds != rs.seeds {
		return fmt.Errorf("crn: plan has %d seeds per variant, spec %d", plan.Seeds, rs.seeds)
	}
	if plan.BaseSeed != rs.spec.BaseSeed {
		return fmt.Errorf("crn: plan base seed %d, spec %d", plan.BaseSeed, rs.spec.BaseSeed)
	}
	if len(plan.Variants) != len(rs.names) {
		return fmt.Errorf("crn: plan has %d variants, spec %d", len(plan.Variants), len(rs.names))
	}
	for v, name := range plan.Variants {
		if name != rs.names[v] {
			return fmt.Errorf("crn: plan variant %d is %q, spec resolves %q", v, name, rs.names[v])
		}
	}
	return nil
}

// RunShard executes one shard of a plan: the jobs in plan.Shards[shard],
// with the identical per-run seeds, worker-pool semantics and error
// handling as Sweep (spec.Workers bounds parallelism; run errors are
// recorded, only ctx cancellation aborts). spec must be the sweep the
// plan was made from — RunShard re-resolves and cross-checks it. It is
// NewShardRunner followed by one Run.
func RunShard(ctx context.Context, spec SweepSpec, plan *ShardPlan, shard int) (*ShardResult, error) {
	sr, err := NewShardRunner(spec, plan)
	if err != nil {
		return nil, err
	}
	return sr.Run(ctx, shard)
}

// ShardRunner executes shards of one plan in turn, keeping the
// scenarios it built between them: a shard builds the scenario of
// each variant with a job in its range (none for an empty shard),
// unless the runner already holds it from the shard before, and the
// runner then drops the scenarios of every other variant. So shards of
// one variant run back to back share its scenario — and what the
// scenario draws lazily, such as a primary-user schedule — while a
// runner never holds more scenarios than one shard needs. A
// ShardRunner is not safe for concurrent use; the plan must not change
// while it is in use.
type ShardRunner struct {
	rs   *resolvedSweep
	plan *ShardPlan
}

// NewShardRunner resolves spec and checks it against plan, once for
// every shard the runner then runs. PlanShards has already built every
// variant once, so a spec that plans cleanly builds cleanly.
func NewShardRunner(spec SweepSpec, plan *ShardPlan) (*ShardRunner, error) {
	rs, err := resolveSweep(spec)
	if err != nil {
		return nil, err
	}
	if err := rs.checkPlan(plan); err != nil {
		return nil, err
	}
	return &ShardRunner{rs: rs, plan: plan}, nil
}

// Run executes shard exactly as RunShard does.
func (sr *ShardRunner) Run(ctx context.Context, shard int) (*ShardResult, error) {
	rs, plan := sr.rs, sr.plan
	if shard < 0 || shard >= len(plan.Shards) {
		return nil, fmt.Errorf("crn: shard %d out of range (plan has %d)", shard, len(plan.Shards))
	}
	r := plan.Shards[shard]
	lo, hi := 0, 0 // the variants with a job in the shard
	if r.Lo < r.Hi {
		lo, hi = r.Lo/rs.seeds, (r.Hi-1)/rs.seeds+1
	}
	for v := range rs.scenarios {
		if v < lo || v >= hi {
			rs.scenarios[v] = nil
		}
	}
	if err := rs.build(lo, hi); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runs := make([]Run, 0, r.Hi-r.Lo)
	for job := r.Lo; job < r.Hi; job++ {
		runs = append(runs, rs.runFor(job))
	}
	if err := rs.executeJobs(ctx, r.Lo, r.Hi, runs); err != nil {
		return nil, err
	}
	return &ShardResult{Shard: shard, Runs: runs}, nil
}

// MergeShards reassembles a complete sweep from shard results: every
// shard of the plan present exactly once, each run slotted back into
// its job-grid position, and the aggregates computed by the same path
// Sweep uses (aggregateRuns). For results
// produced by RunShard from the plan's spec, the returned SweepResult
// is byte-identical (as JSON) to Sweep of that spec — merge equals
// union, exactly.
//
// Each run's identity (variant, index, derived seed) is validated
// against the plan before merging, so artifacts from a different plan,
// base seed or job slice are rejected rather than silently merged.
func MergeShards(plan *ShardPlan, shards ...*ShardResult) (*SweepResult, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	master := rng.New(plan.BaseSeed)
	runs := make([]Run, plan.total())
	seen := make([]bool, len(plan.Shards))
	for pos, sr := range shards {
		if sr == nil {
			return nil, fmt.Errorf("crn: nil shard result (argument %d of %d)", pos, len(shards))
		}
		if sr.Shard < 0 || sr.Shard >= len(plan.Shards) {
			return nil, fmt.Errorf("crn: shard %d out of range (plan has %d)", sr.Shard, len(plan.Shards))
		}
		if seen[sr.Shard] {
			return nil, fmt.Errorf("crn: shard %d supplied twice", sr.Shard)
		}
		seen[sr.Shard] = true
		r := plan.Shards[sr.Shard]
		if len(sr.Runs) != r.Hi-r.Lo {
			return nil, fmt.Errorf("crn: shard %d has %d runs, plan range [%d,%d) wants %d",
				sr.Shard, len(sr.Runs), r.Lo, r.Hi, r.Hi-r.Lo)
		}
		for k, run := range sr.Runs {
			job := r.Lo + k
			v, i := job/plan.Seeds, job%plan.Seeds
			if run.Variant != plan.Variants[v] || run.Index != i {
				return nil, fmt.Errorf("crn: shard %d run %d is (%q, %d), plan expects (%q, %d)",
					sr.Shard, k, run.Variant, run.Index, plan.Variants[v], i)
			}
			if want := deriveSeed(master, v, i); run.Seed != want {
				return nil, fmt.Errorf("crn: shard %d run (%q, %d) has seed %d, plan derives %d — artifact from a different base seed?",
					sr.Shard, run.Variant, run.Index, run.Seed, want)
			}
			runs[job] = run
		}
	}
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("crn: shard %d missing from merge", s)
		}
	}
	return &SweepResult{
		Aggregates: aggregateRuns(plan.Primitive, plan.Variants, plan.Seeds, runs),
		Runs:       runs,
	}, nil
}
