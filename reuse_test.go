package crn

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
)

// TestPooledRunsIsolated: every run takes its engine scratch and its
// CSEEK storage from pools that the runs before it on the goroutine
// released, so nothing a run leaves there may reach the next one. The
// sequence touches every pooled array at sizes that differ from run to
// run: a 256-node static discovery, CKSEEK on GNP(64), a mobile
// discovery whose first-heard tables outgrow Δ, a full-fidelity CGCAST
// run under churn and link flapping, and a discovery under Poisson
// primary users. The CGCAST run's exchanges are CSEEK runs to the end
// of their schedules, so they read the part-one counts in part two:
// its churn is mild enough that nodes get there. Run forwards and then
// backwards, each run follows other runs, and its Result JSON must not
// change.
func TestPooledRunsIsolated(t *testing.T) {
	type run struct {
		name string
		p    Primitive
		opts []ScenarioOption
		seed uint64
	}
	mobileSparse, err := PresetByName(PresetMobileSparse)
	if err != nil {
		t.Fatal(err)
	}
	runs := []run{
		{"regular256/cseek", Discovery(CSeek), []ScenarioOption{
			WithTopology(Regular), WithNodes(256), WithChannels(4, 2, 3), WithSeed(31),
		}, 1},
		{"gnp64/ckseek", KDiscovery(3), []ScenarioOption{
			WithTopology(GNP), WithNodes(64), WithDensity(0.3), WithChannels(4, 2, 3), WithSeed(32),
		}, 2},
		{"mobile-sparse/cseek", Discovery(CSeek), append([]ScenarioOption{
			WithNodes(24), WithChannels(3, 2, 0), WithSeed(33),
		}, mobileSparse.Options...), 3},
		{"gnp10-churn-flap/cgcast-full", GlobalBroadcast(0, nil, WithFullFidelity()), []ScenarioOption{
			WithTopology(GNP), WithNodes(10), WithDensity(0.4), WithChannels(3, 2, 0), WithSeed(34),
			WithChurn(0.0005, 0.01, 35), WithEdgeFlap(0.002, 0.004, 36),
		}, 4},
		{"gnp16-poisson/cseek", Discovery(CSeek), []ScenarioOption{
			WithTopology(GNP), WithNodes(16), WithChannels(4, 2, 3), WithSeed(37),
			WithPoissonPrimaryUsers(0.01, 20, 0, 38),
		}, 5},
	}
	scenarios := make([]*Scenario, len(runs))
	for i, r := range runs {
		s, err := New(r.opts...)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		scenarios[i] = s
	}
	pass := func(order []int) []string {
		out := make([]string, len(runs))
		for _, i := range order {
			res, err := runs[i].p.Run(context.Background(), scenarios[i], runs[i].seed)
			if err != nil {
				t.Fatalf("%s: %v", runs[i].name, err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(doc)
			if runs[i].name == "mobile-sparse/cseek" {
				outgrown := false
				for _, ids := range res.Discovery.Neighbors {
					outgrown = outgrown || len(ids) > scenarios[i].Delta()
				}
				if !outgrown {
					t.Errorf("%s: no first-heard table outgrew Δ = %d", runs[i].name, scenarios[i].Delta())
				}
			}
		}
		return out
	}
	order := []int{0, 1, 2, 3, 4}
	forward := pass(order)
	slices.Reverse(order)
	backward := pass(order)
	for i, r := range runs {
		if forward[i] != backward[i] {
			t.Errorf("%s: the Result depends on the runs before it:\n forwards  %s\n backwards %s", r.name, forward[i], backward[i])
		}
	}
}
