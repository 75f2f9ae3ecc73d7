package crn

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
)

// pinScenario is one scenario of TestDiscoveryResultPinned.
type pinScenario struct {
	name string
	opts []ScenarioOption
}

var pinScenarios = []pinScenario{
	{"static", []ScenarioOption{
		WithTopology(GNP), WithNodes(16), WithChannels(4, 2, 3), WithSeed(21),
	}},
	{"poisson", []ScenarioOption{
		WithTopology(GNP), WithNodes(16), WithChannels(4, 2, 3), WithSeed(22),
		WithPoissonPrimaryUsers(0.01, 20, 0, 23),
	}},
	{"churn", []ScenarioOption{
		WithTopology(GNP), WithNodes(16), WithChannels(4, 2, 3), WithSeed(24),
		WithChurn(0.005, 0.08, 25),
	}},
	{"mobility", []ScenarioOption{
		WithTopology(UnitDisk), WithNodes(16), WithChannels(4, 2, 3), WithDensity(0.3),
		WithSeed(26), WithMobility(0.02, 2, 27),
	}},
}

// pinPrimitive is one primitive of TestDiscoveryResultPinned. The
// baselines are hashed without FirstHeard.
type pinPrimitive struct {
	name       string
	p          Primitive
	firstHeard bool
}

var pinPrimitives = []pinPrimitive{
	{"cseek", Discovery(CSeek), true},
	{"ckseek", KDiscovery(3), true},
	{"naive", Discovery(Naive), false},
	{"uniform", Discovery(Uniform), false},
}

// discoveryPins holds, per scenario/primitive, the digests of one Run
// at seed 11 and of one RunBatch over seeds 11, 12 and 13.
var discoveryPins = map[string]string{
	"static/cseek":     "run=eeab9628c01e889a batch=0be829f9c6a1c226",
	"static/ckseek":    "run=f2090991a6f87a49 batch=e34e94bd47df0511",
	"static/naive":     "run=c294d40676fc51d6 batch=1ed7fdd40ac172e5",
	"static/uniform":   "run=659518da89cd5d3e batch=3289e77f61a1a00b",
	"poisson/cseek":    "run=337341dbaa2ab8f9 batch=3ab7e3a8c0fa17c8",
	"poisson/ckseek":   "run=4d57bc224f6797ce batch=f7a89681ace4a086",
	"poisson/naive":    "run=6e164195e573d24c batch=97da7f3ffacb0baf",
	"poisson/uniform":  "run=fb1de8b27ccebb0f batch=8fba505d3ae9c982",
	"churn/cseek":      "run=53031dcea4c32457 batch=feb79677a57751ec",
	"churn/ckseek":     "run=49ef40b74834be82 batch=8aa19027d5c10bdc",
	"churn/naive":      "run=720905a80706c25b batch=a0cb5847583ec40f",
	"churn/uniform":    "run=25db4fbef9bbecc4 batch=a3c32999bebbbfa8",
	"mobility/cseek":   "run=a676d4c3f604d076 batch=4a79ab735311f2c0",
	"mobility/ckseek":  "run=ed53d85b3a97de45 batch=e2a02d5d62d45bcb",
	"mobility/naive":   "run=9f498b20d55e684c batch=811c5d8314910647",
	"mobility/uniform": "run=10738d7b41ea59e2 batch=835a1ef230f1bd1f",
}

// resultDigest hashes the JSON of every result: neighbors, first-heard
// slots, pair counts, completion and the spectrum and topology blocks.
func resultDigest(t *testing.T, firstHeard bool, results ...*Result) string {
	t.Helper()
	h := fnv.New64a()
	for _, res := range results {
		r := *res
		if !firstHeard {
			d := *r.Discovery
			d.FirstHeard = nil
			r.Discovery = &d
		}
		doc, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(doc)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDiscoveryResultPinned pins whole discovery Results, including
// who heard whom and when, on static, primary-user, churn and mobility
// scenarios, through Run and through RunBatch. Sweeps keep only
// metrics, so nothing else pins Neighbors or FirstHeard. The baselines
// are hashed without FirstHeard, and in the mobility case some node
// hears more than Δ identities.
func TestDiscoveryResultPinned(t *testing.T) {
	ctx := context.Background()
	for _, sc := range pinScenarios {
		s, err := New(sc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range pinPrimitives {
			key := sc.name + "/" + pp.name
			t.Run(key, func(t *testing.T) {
				res, err := pp.p.Run(ctx, s, 11)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := pp.p.(batchRunner).RunBatch(ctx, s, []uint64{11, 12, 13})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("run=%s batch=%s", resultDigest(t, pp.firstHeard, res), resultDigest(t, pp.firstHeard, batch...))
				if want := discoveryPins[key]; got != want {
					t.Errorf("digest %s, pinned %s", got, want)
				}
				if sc.name == "mobility" && pp.name == "cseek" {
					most := 0
					for _, ids := range res.Discovery.Neighbors {
						most = max(most, len(ids))
					}
					if most <= s.p.Delta {
						t.Errorf("no node heard more than Δ = %d identities (most: %d)", s.p.Delta, most)
					}
				}
			})
		}
	}
}
