package crn_test

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"crn"
)

// TestPlanShardsPartition: plans tile the job grid exactly, balanced,
// for every shard count — including more shards than jobs.
func TestPlanShardsPartition(t *testing.T) {
	spec := discoverySpec(1)
	for _, k := range []int{1, 2, 3, 4, 7, 8, 9, 20} {
		plan, err := crn.PlanShards(spec, k)
		if err != nil {
			t.Fatalf("PlanShards(%d): %v", k, err)
		}
		if len(plan.Shards) != k {
			t.Fatalf("PlanShards(%d) made %d shards", k, len(plan.Shards))
		}
		total := len(plan.Variants) * plan.Seeds
		lo, min, max := 0, total, 0
		for _, r := range plan.Shards {
			if r.Lo != lo {
				t.Fatalf("k=%d: range %+v does not continue at %d", k, r, lo)
			}
			size := r.Hi - r.Lo
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
			lo = r.Hi
		}
		if lo != total {
			t.Fatalf("k=%d: ranges cover %d of %d jobs", k, lo, total)
		}
		if max-min > 1 {
			t.Errorf("k=%d: unbalanced shard sizes (min %d, max %d)", k, min, max)
		}
	}
	if _, err := crn.PlanShards(spec, 0); err == nil {
		t.Error("PlanShards(0) accepted")
	}
	if _, err := crn.PlanShards(crn.SweepSpec{}, 2); err == nil {
		t.Error("PlanShards of an invalid spec accepted")
	}
}

// TestSweepRefusesHugeCounts: 1<<40 shards, a spec of 1<<40 seeds, or
// one of MaxVariants+1 variants, are refused by PlanShards, Sweep and
// RunShard before anything is allocated in proportion to the count
// (one ShardRange per requested shard once took the process down; a
// scenario built per variant at planning is far larger than 1 MB over
// that many variants).
func TestSweepRefusesHugeCounts(t *testing.T) {
	ctx := context.Background()
	plan, err := crn.PlanShards(discoverySpec(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	huge := discoverySpec(1)
	huge.Seeds = 1 << 40
	wide := discoverySpec(1)
	wide.Variants = make([]crn.Variant, crn.MaxVariants+1)
	for v := range wide.Variants {
		wide.Variants[v] = discoverySpec(1).Variants[v%2]
	}
	calls := map[string]func() error{
		"PlanShards of 1<<40 shards":           func() error { _, err := crn.PlanShards(discoverySpec(1), 1<<40); return err },
		"PlanShards of 1<<40 seeds":            func() error { _, err := crn.PlanShards(huge, 2); return err },
		"Sweep of 1<<40 seeds":                 func() error { _, err := crn.Sweep(ctx, huge); return err },
		"RunShard of 1<<40 seeds":              func() error { _, err := crn.RunShard(ctx, huge, plan, 0); return err },
		"PlanShards of MaxVariants+1 variants": func() error { _, err := crn.PlanShards(wide, 2); return err },
		"Sweep of MaxVariants+1 variants":      func() error { _, err := crn.Sweep(ctx, wide); return err },
		"RunShard of MaxVariants+1 variants":   func() error { _, err := crn.RunShard(ctx, wide, plan, 0); return err },
	}
	for name, call := range calls {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := call()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s allocated %d bytes before refusing", name, grown)
		}
	}
}

// TestShardedSweepByteIdentity is the acceptance criterion: for any
// shard count (including 1) and any worker count, running every shard
// of a plan and merging reproduces the single-process Sweep output
// byte for byte.
func TestShardedSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	baseline, err := crn.Sweep(ctx, discoverySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5, 8, 11} {
		for _, workers := range []int{1, 4} {
			spec := discoverySpec(workers)
			plan, err := crn.PlanShards(spec, k)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			shards := make([]*crn.ShardResult, k)
			for s := 0; s < k; s++ {
				// Merge in reverse order to prove order-independence.
				res, err := crn.RunShard(ctx, spec, plan, s)
				if err != nil {
					t.Fatalf("k=%d shard %d: %v", k, s, err)
				}
				shards[k-1-s] = res
			}
			merged, err := crn.MergeShards(plan, shards...)
			if err != nil {
				t.Fatalf("k=%d merge: %v", k, err)
			}
			got, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("k=%d workers=%d: merged output diverged from Sweep\n%s\nvs\n%s", k, workers, got, want)
			}
		}
	}
}

// TestShardedSweepByteIdentityAfterJSONRoundTrip: shard artifacts
// cross process boundaries as JSON; parsing them back and merging must
// still be exact (Go float64 JSON encoding round-trips losslessly).
func TestShardedSweepByteIdentityAfterJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	spec := discoverySpec(2)
	spec.KeepResults = false
	baseline, err := crn.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(baseline)

	plan, err := crn.PlanShards(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*crn.ShardResult
	for s := 0; s < 3; s++ {
		res, err := crn.RunShard(ctx, spec, plan, s)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		parsed := new(crn.ShardResult)
		if err := json.Unmarshal(doc, parsed); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, parsed)
	}
	// The plan round-trips too (the manifest stores it as JSON).
	planDoc, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	parsedPlan := new(crn.ShardPlan)
	if err := json.Unmarshal(planDoc, parsedPlan); err != nil {
		t.Fatal(err)
	}
	merged, err := crn.MergeShards(parsedPlan, shards...)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(merged)
	if string(got) != string(want) {
		t.Errorf("round-tripped merge diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestShardValidation: stale or mismatched plans, shards and artifacts
// are rejected instead of silently merged.
func TestShardValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	spec := discoverySpec(1)
	plan, err := crn.PlanShards(spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := crn.RunShard(ctx, spec, plan, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := crn.RunShard(ctx, spec, plan, -1); err == nil {
		t.Error("negative shard accepted")
	}

	// Spec drifted from the plan: different base seed / seed count /
	// primitive.
	drift := spec
	drift.BaseSeed++
	if _, err := crn.RunShard(ctx, drift, plan, 0); err == nil {
		t.Error("base-seed drift accepted")
	}
	drift = spec
	drift.Seeds++
	if _, err := crn.RunShard(ctx, drift, plan, 0); err == nil {
		t.Error("seed-count drift accepted")
	}
	drift = spec
	drift.Primitive = crn.Flooding(0, "m")
	if _, err := crn.RunShard(ctx, drift, plan, 0); err == nil {
		t.Error("primitive drift accepted")
	}

	s0, err := crn.RunShard(ctx, spec, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := crn.RunShard(ctx, spec, plan, 1)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := crn.MergeShards(plan, s0); err == nil {
		t.Error("merge with a missing shard accepted")
	}
	if _, err := crn.MergeShards(plan, s0, s0); err == nil {
		t.Error("merge with a duplicate shard accepted")
	}
	if _, err := crn.MergeShards(plan, s0, nil); err == nil {
		t.Error("merge with a nil shard accepted")
	}

	// An artifact produced under a different base seed fails the
	// per-run seed check even if shapes line up.
	otherPlan, err := crn.PlanShards(drift2(spec), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := crn.RunShard(ctx, drift2(spec), otherPlan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crn.MergeShards(plan, s0, other); err == nil {
		t.Error("merge of an artifact from a different base seed accepted")
	}

	// The happy path still works after all that.
	if _, err := crn.MergeShards(plan, s1, s0); err != nil {
		t.Errorf("valid merge failed: %v", err)
	}
}

func drift2(spec crn.SweepSpec) crn.SweepSpec {
	spec.BaseSeed += 7
	return spec
}

// TestShardedSweepMoreShardsThanJobs: over-sharding leaves some ranges
// empty; running and merging those empty shards — in a rotated, not
// sorted, order — still reproduces Sweep byte for byte.
func TestShardedSweepMoreShardsThanJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	spec := discoverySpec(1)
	baseline, err := crn.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(baseline)

	const k = 13 // 2 variants × 4 seeds = 8 jobs, so 5 shards are empty
	plan, err := crn.PlanShards(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	shards := make([]*crn.ShardResult, k)
	for s := 0; s < k; s++ {
		res, err := crn.RunShard(ctx, spec, plan, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if len(res.Runs) == 0 {
			empty++
		}
		shards[(s+5)%k] = res // rotate: merge order ≠ shard order
	}
	if empty != k-8 {
		t.Fatalf("expected %d empty shards, got %d", k-8, empty)
	}
	merged, err := crn.MergeShards(plan, shards...)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(merged)
	if string(got) != string(want) {
		t.Error("over-sharded rotated merge diverged from Sweep")
	}
	// Dropping an empty shard is still a missing shard.
	if _, err := crn.MergeShards(plan, shards[:k-1]...); err == nil {
		t.Error("merge missing an empty shard accepted")
	}
}

// TestMergeShardsErrorMessages: merge failures must say which shard —
// by index, or by argument position when the index is unreadable —
// so a spool full of artifacts is debuggable from the error alone.
func TestMergeShardsErrorMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	spec := discoverySpec(1)
	plan, err := crn.PlanShards(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var results []*crn.ShardResult
	for s := 0; s < 3; s++ {
		res, err := crn.RunShard(ctx, spec, plan, s)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	wantErr := func(msg string, shards ...*crn.ShardResult) {
		t.Helper()
		_, err := crn.MergeShards(plan, shards...)
		if err == nil {
			t.Errorf("merge accepted, want error containing %q", msg)
			return
		}
		if !strings.Contains(err.Error(), msg) {
			t.Errorf("error %q does not contain %q", err, msg)
		}
	}
	wantErr("shard 1 supplied twice", results[0], results[1], results[1])
	wantErr("argument 1 of 3", results[0], nil, results[2])
	wantErr("shard 2 missing", results[0], results[1])
	wantErr("shard 7 out of range", results[0], results[1], &crn.ShardResult{Shard: 7})
	wantErr("shard 2 has 0 runs", results[0], results[1], &crn.ShardResult{Shard: 2})
}
