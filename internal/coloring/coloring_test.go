package coloring

import (
	"testing"
	"testing/quick"

	"crn/internal/graph"
	"crn/internal/rng"
)

func TestNodeStateLifecycle(t *testing.T) {
	r := rng.New(1)
	plates := NewPlates(1, 4)
	ns := NewNodeState()
	if !ns.Active() || ns.Color() != NoColor {
		t.Fatal("fresh state not active/uncolored")
	}
	if plates.Count(0) != 4 {
		t.Fatalf("plate size %d, want 4", plates.Count(0))
	}

	// Propose until the node actually proposes.
	p := NoColor
	for i := 0; i < 100 && p == NoColor; i++ {
		p = ns.Propose(plates, 0, r)
	}
	if p == NoColor {
		t.Fatal("node never proposed in 100 phases")
	}
	if p < 0 || p >= 4 {
		t.Fatalf("proposal %d outside plate", p)
	}

	// A conflicting neighbor proposal forces a give-up.
	if ns.ResolveConflicts([]int{p}) {
		t.Error("decided despite conflict")
	}
	if !ns.Active() {
		t.Error("inactive after giving up")
	}

	// A clean proposal decides.
	p = NoColor
	for i := 0; i < 100 && p == NoColor; i++ {
		p = ns.Propose(plates, 0, r)
	}
	if !ns.ResolveConflicts([]int{NoColor, p + 1}) {
		t.Error("did not decide without conflict")
	}
	if ns.Active() || ns.Color() != p {
		t.Errorf("color = %d active = %v, want %d/false", ns.Color(), ns.Active(), p)
	}
}

func TestNodeStatePlateShrinks(t *testing.T) {
	plates := NewPlates(3, 4)
	ns := NewNodeState()
	ns.ObserveDecisions(plates, 1, []int{0, 2, NoColor})
	if plates.Count(1) != 2 {
		t.Fatalf("plate size %d after removals, want 2", plates.Count(1))
	}
	if plates.Count(0) != 4 || plates.Count(2) != 4 {
		t.Fatalf("striking row 1 changed its neighbours: %d and %d colors left", plates.Count(0), plates.Count(2))
	}
	// Proposals must come from the remaining plate {1, 3}.
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		if p := ns.Propose(plates, 1, r); p != NoColor && p != 1 && p != 3 {
			t.Fatalf("proposal %d from struck color", p)
		}
	}
}

func TestNodeStateDecidedIgnoresUpdates(t *testing.T) {
	r := rng.New(3)
	plates := NewPlates(1, 2)
	ns := NewNodeState()
	for !ns.ResolveConflicts(nil) {
		ns.Propose(plates, 0, r)
	}
	c := ns.Color()
	ns.ObserveDecisions(plates, 0, []int{c}) // must not disturb a decided node
	if ns.Color() != c || plates.Count(0) != 2 {
		t.Error("decided node's color or plate changed")
	}
	if got := ns.Propose(plates, 0, r); got != NoColor {
		t.Error("decided node proposed")
	}
}

// TestNodeStatePlateAgainstModel strikes random colors from one plate
// row and checks every Propose against a sorted map model of the
// plate: a coin (Bool), then Intn over the colors left, then the
// color of that rank — the draws a per-node bitset plate made.
func TestNodeStatePlateAgainstModel(t *testing.T) {
	const numColors = 70 // two words per row
	f := func(seed uint64, strikes []uint8) bool {
		plates := NewPlates(3, numColors)
		left := make(map[int]bool, numColors)
		for c := 0; c < numColors; c++ {
			left[c] = true
		}
		r := rng.New(seed)
		for _, s := range strikes {
			ns := NewNodeState()
			c := int(s) % (numColors + 10) // some strikes fall off the plate
			ns.ObserveDecisions(plates, 1, []int{c, NoColor})
			delete(left, c)
			model := *r
			want := NoColor
			if model.Bool() && len(left) > 0 {
				var sorted []int
				for c := 0; c < numColors; c++ {
					if left[c] {
						sorted = append(sorted, c)
					}
				}
				want = sorted[model.Intn(len(sorted))]
			}
			if got := ns.Propose(plates, 1, r); got != want || *r != model {
				return false
			}
		}
		return plates.Count(1) == len(left) && plates.Count(0) == numColors && plates.Count(2) == numColors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunOnPath(t *testing.T) {
	g := graph.Path(10)
	res, err := Run(g, 4, 200, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("coloring incomplete")
	}
	if err := Validate(g, res.Colors, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnCompleteGraph(t *testing.T) {
	g := graph.Complete(8)
	res, err := Run(g, 16, 500, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("coloring incomplete")
	}
	if err := Validate(g, res.Colors, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsTooFewColors(t *testing.T) {
	g := graph.Complete(5)
	if _, err := Run(g, 4, 100, rng.New(6)); err == nil {
		t.Error("numColors == maxDegree accepted")
	}
}

// TestRunLineGraphTwoDelta is the Lemma 8 setting: color the line graph
// of G with 2Δ(G) colors.
func TestRunLineGraphTwoDelta(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g, err := graph.GNP(14, 0.3, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		lg, _ := g.LineGraph()
		numColors := 2 * g.MaxDegree()
		res, err := Run(lg, numColors, 400, rng.New(seed+50))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: line-graph coloring incomplete", seed)
		}
		if err := Validate(lg, res.Colors, numColors); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRunPhasesLogarithmic checks the Lemma 8 shape: phases grow slowly
// (≈ lg n) rather than linearly in n.
func TestRunPhasesLogarithmic(t *testing.T) {
	phasesFor := func(n int) int {
		g := graph.Path(n)
		res, err := Run(g, 4, 10_000, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("n=%d incomplete", n)
		}
		return res.Phases
	}
	p64 := phasesFor(64)
	p1024 := phasesFor(1024)
	// 16x more nodes should cost only a few extra phases, far below 16x.
	if p1024 > 4*p64 {
		t.Errorf("phases grew from %d (n=64) to %d (n=1024); expected logarithmic growth", p64, p1024)
	}
}

func TestValidateRejects(t *testing.T) {
	g := graph.Path(3)
	if err := Validate(g, []int{0, 0, 1}, 2); err == nil {
		t.Error("adjacent duplicate accepted")
	}
	if err := Validate(g, []int{0, 1}, 2); err == nil {
		t.Error("wrong length accepted")
	}
	if err := Validate(g, []int{0, 1, 5}, 2); err == nil {
		t.Error("out-of-range color accepted")
	}
	if err := Validate(g, []int{0, 1, NoColor}, 2); err == nil {
		t.Error("uncolored node accepted")
	}
}

// TestQuickRunAlwaysValid fuzzes random graphs; every completed run
// must be a proper coloring.
func TestQuickRunAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := graph.GNP(12, 0.35, r)
		if err != nil {
			return true
		}
		numColors := g.MaxDegree() + 1
		res, err := Run(g, numColors, 2000, r)
		if err != nil || !res.Completed {
			return false
		}
		return Validate(g, res.Colors, numColors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
