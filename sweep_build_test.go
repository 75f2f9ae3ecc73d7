package crn

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"
)

// TestPlanShardsHoldsOneVariantAtATime: planning builds every variant
// to refuse an unbuildable one, but drops each scenario once built, so
// a plan's peak memory is one variant's graph, not the sum of all of
// them. Each variant's post hook collects and checks that the previous
// variant's scenario is gone.
func TestPlanShardsHoldsOneVariantAtATime(t *testing.T) {
	const variants = 4
	built := make([]weak.Pointer[Scenario], variants)
	var held []int
	spec := SweepSpec{Primitive: Discovery(CSeek), Seeds: 2, BaseSeed: 5}
	for v := 0; v < variants; v++ {
		spec.Variants = append(spec.Variants, Variant{Name: fmt.Sprintf("path-%d", v), Options: []ScenarioOption{
			WithTopology(Path), WithNodes(4), WithChannels(2, 1, 0), WithSeed(uint64(v)),
			func(b *scenarioBuilder) {
				b.post = append(b.post, func(s *Scenario) error {
					built[v] = weak.Make(s)
					if v > 0 {
						runtime.GC()
						if built[v-1].Value() != nil {
							held = append(held, v-1)
						}
					}
					return nil
				})
			},
		}})
	}
	if _, err := PlanShards(spec, 3); err != nil {
		t.Fatal(err)
	}
	if held != nil {
		t.Errorf("PlanShards still held the scenarios of variants %v while building the next", held)
	}
}

// TestShardBuildsOnlyItsVariants: RunShard builds the scenarios of only
// the variants with a job in its range: one, two when the range
// straddles a variant boundary, none for an empty shard. A ShardRunner
// builds the same ones, less those it still holds from the shard
// before. PlanShards and Sweep build every variant, so a broken variant
// is still rejected before any run.
func TestShardBuildsOnlyItsVariants(t *testing.T) {
	const variants, seeds = 4, 3
	var builds []int // builds[v]: times variant v's options were applied
	spec := func(broken bool) SweepSpec {
		spec := SweepSpec{Primitive: Discovery(CSeek), Seeds: seeds, BaseSeed: 5, Workers: 1}
		for v := 0; v < variants; v++ {
			nodes := 4
			if broken && v == variants-1 {
				nodes = 1
			}
			spec.Variants = append(spec.Variants, Variant{Name: fmt.Sprintf("path-%d", v), Options: []ScenarioOption{
				WithTopology(Path), WithNodes(nodes), WithChannels(2, 1, 0), WithSeed(uint64(v)),
				func(*scenarioBuilder) { builds[v]++ },
			}})
		}
		return spec
	}
	count := func(step func() error) []int {
		t.Helper()
		builds = make([]int, variants)
		if err := step(); err != nil {
			t.Fatal(err)
		}
		return builds
	}

	var plan *ShardPlan
	if got := count(func() (err error) { plan, err = PlanShards(spec(false), 5); return err }); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Errorf("PlanShards built variants %v times, want each once", got)
	}
	if got := count(func() error { _, err := Sweep(context.Background(), spec(false)); return err }); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Errorf("Sweep built variants %v times, want each once", got)
	}
	// 12 jobs over 5 shards: [0,3) [3,6) [6,8) [8,10) [10,12).
	for shard, want := range map[int][]int{0: {1, 0, 0, 0}, 1: {0, 1, 0, 0}, 3: {0, 0, 1, 1}, 4: {0, 0, 0, 1}} {
		got := count(func() error { _, err := RunShard(context.Background(), spec(false), plan, shard); return err })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("RunShard of shard %d %v built variants %v times, want %v", shard, plan.Shards[shard], got, want)
		}
	}
	wide, err := PlanShards(spec(false), variants*seeds+1)
	if err != nil {
		t.Fatal(err)
	}
	empty := len(wide.Shards) - 1
	if got := count(func() error { _, err := RunShard(context.Background(), spec(false), wide, empty); return err }); !reflect.DeepEqual(got, []int{0, 0, 0, 0}) {
		t.Errorf("RunShard of the empty shard %v built variants %v times, want none", wide.Shards[empty], got)
	}

	// A runner builds a variant only when it does not hold it from the
	// shard before, and keeps only the last shard's variants: in order,
	// shards 0–4 build each variant once; shard 4 then shard 0 rebuild
	// only variant 0. Every result is RunShard's, byte for byte.
	sr, err := NewShardRunner(spec(false), plan)
	if err != nil {
		t.Fatal(err)
	}
	runnerPass := func(shards ...int) []int {
		t.Helper()
		results := make([]*ShardResult, len(shards))
		got := slices.Clone(count(func() (err error) {
			for i, shard := range shards {
				if results[i], err = sr.Run(context.Background(), shard); err != nil {
					return err
				}
			}
			return nil
		}))
		for i, shard := range shards {
			want, err := RunShard(context.Background(), spec(false), plan, shard)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, results[i]), mustJSON(t, want); g != w {
				t.Errorf("runner result of shard %d differs from RunShard's:\n%s\nvs\n%s", shard, g, w)
			}
		}
		return got
	}
	if got := runnerPass(0, 1, 2, 3, 4); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Errorf("a runner over shards 0-4 built variants %v times, want each once", got)
	}
	if got := runnerPass(4, 0); !reflect.DeepEqual(got, []int{1, 0, 0, 0}) {
		t.Errorf("the runner then over shards 4 and 0 built variants %v times, want only variant 0, once", got)
	}

	builds = make([]int, variants)
	if _, err := PlanShards(spec(true), 5); err == nil || !strings.Contains(err.Error(), "path-3") {
		t.Errorf("PlanShards of a spec with a broken variant: err %v, want one naming path-3", err)
	}
	if _, err := Sweep(context.Background(), spec(true)); err == nil || !strings.Contains(err.Error(), "path-3") {
		t.Errorf("Sweep of a spec with a broken variant: err %v, want one naming path-3", err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	doc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}
