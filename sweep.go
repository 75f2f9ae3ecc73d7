package crn

import (
	"context"
	"fmt"
	"runtime"

	"crn/internal/rng"
	"crn/internal/stats"
)

// Variant names one scenario configuration inside a sweep. Exactly one
// of Scenario (a prebuilt scenario, shared read-only by the workers)
// or Options (applied once when the sweep starts) must be set.
type Variant struct {
	// Name labels the variant in aggregates; empty defaults to
	// "variant-<index>".
	Name string
	// Scenario is a prebuilt scenario to run on.
	Scenario *Scenario
	// Options generate the scenario at sweep start when Scenario is nil.
	Options []ScenarioOption
}

// SweepSpec describes a sweep: one primitive fanned out over
// Seeds × len(Variants) runs.
type SweepSpec struct {
	// Primitive is the primitive every run executes.
	Primitive Primitive
	// Variants are the scenario configurations to sweep over: at least
	// one, and at most 4096.
	Variants []Variant
	// Seeds is the number of runs per variant (default 1, at most
	// 2^20). Per-run seeds are derived deterministically from BaseSeed
	// via rng.Split, so run (variant, i) sees the same seed regardless
	// of Workers — or of which shard of a ShardPlan executes it.
	Seeds int
	// BaseSeed is the master seed of the sweep.
	BaseSeed uint64
	// Workers bounds the parallelism (0 means GOMAXPROCS). The
	// aggregates are byte-identical for any worker count.
	Workers int
	// KeepResults retains every run's full Result envelope (per-node
	// neighbor lists and all). Off by default: aggregation only needs
	// each run's Metrics, and large sweeps would otherwise hold
	// O(runs × n × degree) of detail until the sweep returns.
	KeepResults bool
	// Batch, when > 1, feeds up to Batch same-variant runs through one
	// fused engine pass (radio.BatchEngine) per worker task, amortizing
	// graph, assignment and engine scratch across the batch. It only
	// applies when the primitive supports batching (the discovery
	// primitives, on static and dynamic topologies alike) and is a pure
	// execution strategy: results and aggregates are byte-identical to
	// Batch == 0 at any worker count, which the batch engine's replica
	// isolation guarantees and the test suite enforces. Whether batching
	// was actually used is reported in SweepResult.Batching.
	Batch int
}

// batchRunner is implemented by primitives that can execute several
// same-scenario runs through one fused engine pass. The contract is
// strict: RunBatch(ctx, s, seeds)[i] must be byte-identical to Run(ctx,
// s, seeds[i]) for every i — batching is an execution strategy, never a
// model change.
type batchRunner interface {
	RunBatch(ctx context.Context, s *Scenario, seeds []uint64) ([]*Result, error)
}

// resolvedSweep is a validated SweepSpec: variant names resolved, the
// seed count defaulted, and the master rng fixed. It is the common
// ground under Sweep, PlanShards and RunShard — all three must agree
// on the job grid (job = variant*seeds + index) and the per-run seed
// derivation, or sharded execution would diverge from in-process
// execution. Scenarios are built separately, per variant range
// (build), so a shard builds only the variants it runs.
type resolvedSweep struct {
	spec      SweepSpec
	seeds     int
	total     int
	names     []string
	scenarios []*Scenario // variant v's, once built
	master    *rng.Source
}

// maxSeeds bounds a sweep's runs per variant, maxVariants its variants
// and maxShards the shards a plan splits it into. All three sit far
// above every spec, example and test in this repository (the largest
// has 1024 seeds and 24 variants; none plans more than 20 shards);
// they exist so that one spec or submit request cannot make Sweep,
// PlanShards or RunShard allocate — or build scenarios — without
// limit: each refuses a larger count before allocating anything in
// proportion to it.
//
// maxNodes bounds a scenario's nodes, so its graph's dense adjacency
// matrix (n²/8 bytes) stays near 8 MiB: New and NewCustomScenario
// refuse a larger N, and the tree topology a larger tree, before
// building anything.
const (
	maxSeeds    = 1 << 20
	maxVariants = 1 << 12
	maxShards   = 1 << 16
	maxNodes    = 8192
)

func resolveSweep(spec SweepSpec) (*resolvedSweep, error) {
	if spec.Primitive == nil {
		return nil, fmt.Errorf("crn: sweep needs a primitive")
	}
	if len(spec.Variants) == 0 {
		return nil, fmt.Errorf("crn: sweep needs at least one variant")
	}
	if len(spec.Variants) > maxVariants {
		return nil, fmt.Errorf("crn: %d variants, at most %d", len(spec.Variants), maxVariants)
	}
	if spec.Seeds > maxSeeds {
		return nil, fmt.Errorf("crn: %d seeds per variant, at most %d", spec.Seeds, maxSeeds)
	}
	rs := &resolvedSweep{
		spec:      spec,
		seeds:     spec.Seeds,
		names:     make([]string, len(spec.Variants)),
		scenarios: make([]*Scenario, len(spec.Variants)),
		master:    rng.New(spec.BaseSeed),
	}
	if rs.seeds <= 0 {
		rs.seeds = 1
	}
	rs.total = len(spec.Variants) * rs.seeds

	for v, variant := range spec.Variants {
		rs.names[v] = variant.Name
		if rs.names[v] == "" {
			rs.names[v] = fmt.Sprintf("variant-%d", v)
		}
		switch {
		case variant.Scenario != nil && variant.Options != nil:
			return nil, fmt.Errorf("crn: variant %q sets both Scenario and Options", rs.names[v])
		case variant.Scenario == nil && variant.Options == nil:
			return nil, fmt.Errorf("crn: variant %q has neither Scenario nor Options", rs.names[v])
		}
	}
	return rs, nil
}

// build resolves the scenarios of variants [lo, hi) not already built:
// a prebuilt one as given, otherwise New of the variant's Options.
func (rs *resolvedSweep) build(lo, hi int) error {
	for v := lo; v < hi; v++ {
		if rs.scenarios[v] != nil {
			continue
		}
		variant := rs.spec.Variants[v]
		if variant.Scenario != nil {
			rs.scenarios[v] = variant.Scenario
			continue
		}
		s, err := New(variant.Options...)
		if err != nil {
			return fmt.Errorf("crn: variant %q: %w", rs.names[v], err)
		}
		rs.scenarios[v] = s
	}
	return nil
}

// deriveSeed is the one per-run seed derivation: Split reads (does
// not advance) the master state, keyed by (variant, index), so the
// seed depends only on BaseSeed and the job's grid position — never
// on scheduling, worker count or shard boundaries. MergeShards
// re-derives seeds through this same helper to validate artifacts;
// any change here is a breaking change to recorded shard artifacts.
func deriveSeed(master *rng.Source, v, i int) uint64 {
	return master.Split(uint64(v)<<32 | uint64(i)).Uint64()
}

// runFor returns the blank Run for one job: identity and derived seed
// set, outcome not yet filled in.
func (rs *resolvedSweep) runFor(job int) Run {
	v, i := job/rs.seeds, job%rs.seeds
	return Run{
		Variant: rs.names[v],
		Index:   i,
		Seed:    deriveSeed(rs.master, v, i),
	}
}

// jobChunk is a contiguous range of same-variant job offsets handed to
// one worker task: [k0, k1) within the executeJobs window.
type jobChunk struct{ k0, k1 int }

// chunkJobs splits the job window [lo, hi) into worker tasks. Without
// batching every job is its own chunk; with batching, runs of up to
// spec.Batch contiguous jobs of the same variant are grouped so one
// fused engine pass covers them. Chunks never span variants (a batch
// shares one scenario).
func (rs *resolvedSweep) chunkJobs(lo, hi, batch int) []jobChunk {
	if batch < 1 {
		batch = 1
	}
	chunks := make([]jobChunk, 0, (hi-lo+batch-1)/batch)
	for k := 0; k < hi-lo; {
		v := (lo + k) / rs.seeds
		end := k + 1
		for end < hi-lo && end-k < batch && (lo+end)/rs.seeds == v {
			end++
		}
		chunks = append(chunks, jobChunk{k0: k, k1: end})
		k = end
	}
	return chunks
}

// batchingInfo reports how the job window [lo, hi) executes under the
// spec's Batch setting. It is a pure function of the resolved spec and
// the deterministic chunk layout (chunkJobs), so it needs no feedback
// from the worker pool — the report is exact, not sampled.
func (rs *resolvedSweep) batchingInfo(lo, hi int) *BatchingInfo {
	info := &BatchingInfo{Requested: rs.spec.Batch}
	_, info.Supported = rs.spec.Primitive.(batchRunner)
	batch := rs.spec.Batch
	if !info.Supported || batch <= 1 {
		info.SequentialRuns = hi - lo
		return info
	}
	for _, c := range rs.chunkJobs(lo, hi, batch) {
		if n := c.k1 - c.k0; n > 1 {
			info.BatchedRuns += n
		} else {
			info.SequentialRuns++
		}
	}
	return info
}

// recordResult fills one Run from its primitive Result.
func (rs *resolvedSweep) recordResult(run *Run, res *Result) {
	run.Completed = res.Completed
	run.Metrics = res.Metrics()
	if rs.spec.KeepResults {
		run.Result = res
	}
}

// executeJobs runs the contiguous job range [lo, hi) on a worker
// pool, filling runs[k] with the outcome of job lo+k (runs must come
// from runFor). Individual run errors are recorded on the Run; only
// cancellation aborts the pool. When spec.Batch > 1 and the primitive
// supports batching, workers execute fused multi-run chunks instead of
// single runs — with byte-identical results (see batchRunner).
func (rs *resolvedSweep) executeJobs(ctx context.Context, lo, hi int, runs []Run) error {
	if hi <= lo {
		return ctx.Err()
	}
	var br batchRunner
	batch := rs.spec.Batch
	if batch > 1 {
		br, _ = rs.spec.Primitive.(batchRunner)
	}
	if br == nil {
		batch = 1
	}
	chunks := rs.chunkJobs(lo, hi, batch)

	workers := rs.spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}

	feed := make(chan jobChunk)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for c := range feed {
				v := (lo + c.k0) / rs.seeds
				if c.k1-c.k0 == 1 {
					run := &runs[c.k0]
					res, err := rs.spec.Primitive.Run(ctx, rs.scenarios[v], run.Seed)
					if err != nil {
						run.Err = err.Error()
						continue
					}
					rs.recordResult(run, res)
					continue
				}
				seeds := make([]uint64, c.k1-c.k0)
				for i := range seeds {
					seeds[i] = runs[c.k0+i].Seed
				}
				results, err := br.RunBatch(ctx, rs.scenarios[v], seeds)
				if err != nil {
					// A batch fails as a unit: construction errors are
					// seed-independent, and cancellation aborts the pool
					// anyway.
					for i := c.k0; i < c.k1; i++ {
						runs[i].Err = err.Error()
					}
					continue
				}
				for i, res := range results {
					rs.recordResult(&runs[c.k0+i], res)
				}
			}
		}()
	}
loop:
	for _, c := range chunks {
		select {
		case feed <- c:
		case <-ctx.Done():
			break loop
		}
	}
	close(feed)
	for w := 0; w < workers; w++ {
		<-done
	}
	return ctx.Err()
}

// aggregateRuns is the single aggregation path shared by in-process
// sweeps (Sweep) and shard merges (MergeShards): runs must be the
// complete job grid in (variant, index) order. Each metric's samples
// go through stats.Summarize, a pure function of the sample multiset
// — which is why merged shards reproduce the single-process
// aggregates byte for byte.
func aggregateRuns(primitive string, names []string, seeds int, runs []Run) []Aggregate {
	aggs := make([]Aggregate, len(names))
	for v := range names {
		agg := Aggregate{
			Variant:   names[v],
			Primitive: primitive,
			Metrics:   make(map[string]Summary),
		}
		samples := make(map[string][]float64)
		for i := 0; i < seeds; i++ {
			run := runs[v*seeds+i]
			agg.Runs++
			if run.Err != "" {
				agg.Failures++
				continue
			}
			if run.Completed {
				agg.Completed++
			}
			for name, value := range run.Metrics {
				samples[name] = append(samples[name], value)
			}
		}
		for name, xs := range samples {
			agg.Metrics[name] = stats.Summarize(xs)
		}
		aggs[v] = agg
	}
	return aggs
}

// Sweep fans spec.Primitive out over spec.Seeds × spec.Variants on a
// worker pool of spec.Workers goroutines. Scenarios are built once per
// variant and shared read-only; per-run seeds are derived from
// BaseSeed with rng.Split keyed by (variant, index), so results — and
// therefore the aggregates — are byte-identical for any worker count.
// (They are also byte-identical to running the same spec through a
// ShardPlan of any width and merging: see PlanShards / MergeShards.)
//
// Cancellation: ctx is threaded into every primitive run (the engines
// poll it every 16 simulated slots); when ctx is cancelled, Sweep
// abandons unfinished work and returns ctx.Err().
//
// Individual run errors do not abort the sweep: they are recorded on
// the Run and counted in the variant's Failures.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	rs, err := resolveSweep(spec)
	if err != nil {
		return nil, err
	}
	// Build every variant up front so configuration errors surface
	// before any worker starts.
	if err := rs.build(0, len(spec.Variants)); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runs := make([]Run, rs.total)
	for job := range runs {
		runs[job] = rs.runFor(job)
	}
	if err := rs.executeJobs(ctx, 0, rs.total, runs); err != nil {
		return nil, err
	}
	return &SweepResult{
		Aggregates: aggregateRuns(spec.Primitive.Name(), rs.names, rs.seeds, runs),
		Runs:       runs,
		Batching:   rs.batchingInfo(0, rs.total),
	}, nil
}
