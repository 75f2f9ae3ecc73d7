package crn_test

import (
	"context"
	"reflect"
	"testing"

	"crn"
)

// TestNewMatchesNewScenario: the functional-option constructor and the
// deprecated positional config must generate the identical scenario —
// same realized parameters and the same deterministic simulation.
func TestNewMatchesNewScenario(t *testing.T) {
	viaOptions, err := crn.New(
		crn.WithTopology(crn.Path),
		crn.WithNodes(6),
		crn.WithChannels(4, 2, 0),
		crn.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	viaConfig, err := crn.NewScenario(crn.ScenarioConfig{
		Topology: crn.Path, N: 6, C: 4, K: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaOptions.String() != viaConfig.String() {
		t.Errorf("scenarios differ: %q vs %q", viaOptions, viaConfig)
	}
	a, err := crn.Discovery(crn.CSeek).Run(context.Background(), viaOptions, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crn.Discovery(crn.CSeek).Run(context.Background(), viaConfig, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestDeprecatedShimsMatchPrimitives: the deprecated entry points are
// thin wrappers — their results must agree field-by-field with the
// Primitive Results they shim.
func TestDeprecatedShimsMatchPrimitives(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	s, err := crn.New(crn.WithTopology(crn.Chain), crn.WithNodes(16), crn.WithChannels(4, 2, 0), crn.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	old, err := s.Discover(crn.CSeek, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.Discovery(crn.CSeek).Run(ctx, s, 17)
	if err != nil {
		t.Fatal(err)
	}
	if old.ScheduleSlots != res.ScheduleSlots ||
		old.CompletedAtSlot != res.CompletedAtSlot ||
		old.PairsDiscovered != res.Discovery.PairsDiscovered ||
		old.PairsTotal != res.Discovery.PairsTotal ||
		!reflect.DeepEqual(old.Neighbors, res.Discovery.Neighbors) {
		t.Errorf("Discover shim drifted: %+v vs %+v", old, res)
	}

	oldB, err := s.Broadcast(0, "m", 19)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := crn.GlobalBroadcast(0, "m").Run(ctx, s, 19)
	if err != nil {
		t.Fatal(err)
	}
	if oldB.TotalSlots != resB.ScheduleSlots ||
		oldB.AllInformedAtSlot != resB.CompletedAtSlot ||
		oldB.AllInformed != resB.Completed ||
		oldB.SetupSlots != resB.Broadcast.SetupSlots ||
		oldB.DissemScheduleSlots != resB.Broadcast.DissemScheduleSlots {
		t.Errorf("Broadcast shim drifted: %+v vs %+v", oldB, resB)
	}

	oldF, err := s.Flood(0, "m", 23)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := crn.Flooding(0, "m").Run(ctx, s, 23)
	if err != nil {
		t.Fatal(err)
	}
	if oldF.AllInformedAtSlot != resF.CompletedAtSlot || oldF.AllInformed != resF.Completed {
		t.Errorf("Flood shim drifted: %+v vs %+v", oldF, resF)
	}
}

func TestWithChannelsHeterogeneous(t *testing.T) {
	s, err := crn.New(crn.WithTopology(crn.Path), crn.WithNodes(8), crn.WithChannels(8, 2, 5), crn.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.KMax() <= s.K() {
		t.Errorf("kmax = %d not above k = %d in heterogeneous scenario", s.KMax(), s.K())
	}
}

// TestWithTuning: raising P1Steps must stretch the CSEEK schedule.
func TestWithTuning(t *testing.T) {
	mk := func(opts ...crn.ScenarioOption) int64 {
		t.Helper()
		base := []crn.ScenarioOption{
			crn.WithTopology(crn.Path), crn.WithNodes(6), crn.WithChannels(3, 2, 0), crn.WithSeed(5),
		}
		s, err := crn.New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := crn.Discovery(crn.CSeek).Run(context.Background(), s, 9)
		if err != nil {
			t.Fatal(err)
		}
		return res.ScheduleSlots
	}
	def := mk()
	stretched := mk(crn.WithTuning(crn.Tuning{P1Steps: 16}))
	if stretched <= def {
		t.Errorf("P1Steps=16 schedule %d not above default %d", stretched, def)
	}
}

// totalJammer occupies every channel in every slot.
type totalJammer struct{}

func (totalJammer) Jammed(int64, int32) bool { return true }

// TestWithJammer: a total jammer installed as an option blocks all
// discovery, exactly like the deprecated SetJammer path.
func TestWithJammer(t *testing.T) {
	s, err := crn.New(
		crn.WithTopology(crn.Path), crn.WithNodes(6), crn.WithChannels(3, 2, 0), crn.WithSeed(31),
		crn.WithJammer(totalJammer{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.Discovery(crn.CSeek).Run(context.Background(), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discovery.PairsDiscovered != 0 {
		t.Errorf("discovered %d pairs under total jamming, want 0", res.Discovery.PairsDiscovered)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []crn.ScenarioOption
	}{
		{name: "no nodes", opts: []crn.ScenarioOption{crn.WithChannels(3, 1, 0)}},
		{name: "too few nodes", opts: []crn.ScenarioOption{crn.WithNodes(1), crn.WithChannels(3, 1, 0)}},
		{name: "k over c", opts: []crn.ScenarioOption{crn.WithNodes(4), crn.WithChannels(2, 3, 0)}},
		{name: "kmax under k", opts: []crn.ScenarioOption{crn.WithNodes(4), crn.WithChannels(4, 3, 2)}},
		{name: "bad topology", opts: []crn.ScenarioOption{crn.WithTopology("donut"), crn.WithNodes(4), crn.WithChannels(2, 1, 0)}},
		{name: "bad periodic users", opts: []crn.ScenarioOption{crn.WithNodes(4), crn.WithChannels(2, 1, 0), crn.WithPeriodicPrimaryUsers(40, 0)}},
		{name: "bad markov users", opts: []crn.ScenarioOption{crn.WithNodes(4), crn.WithChannels(2, 1, 0), crn.WithMarkovPrimaryUsers(2.0, 0.2, 100, 9)}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := crn.New(tt.opts...); err == nil {
				t.Error("invalid options accepted")
			}
		})
	}
}

// TestParseSpectrumNaNRejectedAtNew: ParseFloat accepts "nan", so a
// NaN probability parses, and crn.New must reject it when it builds
// the model instead of installing channels that never turn busy.
func TestParseSpectrumNaNRejectedAtNew(t *testing.T) {
	for _, spec := range []string{"markov:nan,0.2", "markov:0.05,nan", "poisson:nan,25", "poisson:0.01,nan"} {
		opts, err := crn.ParseSpectrum(spec, 1)
		if err != nil {
			t.Fatalf("ParseSpectrum(%q): %v", spec, err)
		}
		opts = append([]crn.ScenarioOption{crn.WithNodes(4), crn.WithChannels(2, 1, 0)}, opts...)
		if _, err := crn.New(opts...); err == nil {
			t.Errorf("crn.New accepted spectrum %q", spec)
		}
	}
}
