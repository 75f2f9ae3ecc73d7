// Package experiments defines one reproducible experiment per claim of
// the paper (see DESIGN.md's experiment index, E1–E17). Each
// experiment builds its workload, sweeps its parameter, runs the
// algorithms and baselines, and returns a Table whose rows are the
// series the theory predicts. cmd/crnbench prints all of them;
// bench_test.go wraps each in a testing.B benchmark.
//
// Experiments that measure whole primitives (discovery, broadcast)
// run through the public crn facade — the same Primitive/Sweep path
// users run — while experiments probing sub-protocol machinery step
// internal protocols directly.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"crn"
	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/graph"
	"crn/internal/radio"
)

// Scale selects experiment sizes: Quick for benchmarks and smoke runs,
// Full for the cmd/crnbench table regeneration.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota + 1
	Full
)

// Definition names one runnable experiment.
type Definition struct {
	// ID is the experiment identifier (E1..E17).
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the theorem/lemma reproduced.
	Claim string
	// Run executes the experiment.
	Run func(scale Scale, seed uint64) (*Table, error)
}

// All returns every experiment in index order.
func All() []Definition {
	return []Definition{
		{ID: "E1", Title: "COUNT estimate accuracy", Claim: "Lemma 1: estimate in [m, 4m] w.h.p.", Run: E1Count},
		{ID: "E2", Title: "Discovery time vs c", Claim: "Theorem 4: CSEEK ~ c²/k; naive ~ (c²/k)·Δ", Run: E2SeekVsC},
		{ID: "E3", Title: "Discovery time vs Δ", Claim: "Theorem 4: CSEEK additive in Δ; naive multiplicative", Run: E3SeekVsDelta},
		{ID: "E4", Title: "Discovery time vs kmax/k", Claim: "Theorem 4: (kmax/k)·Δ term", Run: E4Heterogeneity},
		{ID: "E5", Title: "CKSEEK k̂-filter", Claim: "Theorem 6: k̂ > k strictly faster", Run: E5KSeek},
		{ID: "E6", Title: "Line-graph coloring phases", Claim: "Lemma 8: valid 2Δ coloring in O(lg n) phases", Run: E6Coloring},
		{ID: "E7", Title: "Broadcast time vs D", Claim: "Theorem 9: CGCAST ~ setup + D·Δ; flooding ~ (c²/k)·D", Run: E7BroadcastVsD},
		{ID: "E8", Title: "Dissemination vs Δ", Claim: "Theorem 9: dissemination ~ D·Δ", Run: E8BroadcastVsDelta},
		{ID: "E9", Title: "Bipartite hitting game", Claim: "Lemma 10 + Thm 13: ≥ c²/(8k) rounds", Run: E9HittingGame},
		{ID: "E10", Title: "Complete hitting game", Claim: "Lemma 12: ≥ c/3 rounds", Run: E10CompleteGame},
		{ID: "E11", Title: "Tree broadcast floor", Claim: "Theorem 14: Ω(D·min{c,Δ})", Run: E11TreeBound},
		{ID: "E12", Title: "Part-two priority bias", Claim: "Section 7: dense overlaps heard first", Run: E12PriorityBias},
		{ID: "E13", Title: "Primary-user jamming", Claim: "Extension: graceful degradation under occupancy", Run: E13Jamming},
		{ID: "E14", Title: "Rendezvous vs contention", Claim: "Section 2: meetings alone do not solve discovery", Run: E14Rendezvous},
		{ID: "E15", Title: "Staggered starts", Claim: "Extension: sensitivity to the synchronous-start assumption", Run: E15AsyncStart},
		{ID: "E16", Title: "Setup amortization", Claim: "Theorem 9 corollary: one setup, many broadcasts", Run: E16Amortization},
		{ID: "E17", Title: "Poisson vs Markov primary traffic", Claim: "Chaoub–Ibn-Elhaj: burst shape changes completion at matched occupancy", Run: E17TrafficModels},
	}
}

// Find returns the definition with the given ID.
func Find(id string) (Definition, bool) {
	for _, d := range All() {
		if strings.EqualFold(d.ID, id) {
			return d, true
		}
	}
	return Definition{}, false
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note line (conclusions, fits).
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text with a markdown-style header.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	if _, err := fmt.Fprintf(w, "### %s — %s\n%s\n\n", t.ID, t.Title, t.Claim); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(seps)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ----- shared measurement helpers -----

// instance bundles a generated workload for the experiments that step
// raw protocols (COUNT, hitting games, rendezvous, staggered starts,
// broadcast sessions). Experiments that measure whole primitives go
// through the public facade instead — see facadeScenario.
type instance struct {
	g  *graph.Graph
	a  *chanassign.Assignment
	p  core.Params
	nw *radio.Network
}

// newInstance derives normalized Params from a graph/assignment pair.
func newInstance(g *graph.Graph, a *chanassign.Assignment) (*instance, error) {
	k, kmax := a.OverlapRange(g)
	p := core.Params{N: g.N(), C: a.C, K: k, KMax: kmax, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	return &instance{g: g, a: a, p: p, nw: &radio.Network{Graph: g, Assign: a}}, nil
}

// facadeScenario bridges a bespoke workload (prebuilt graph and
// channel assignment) into the public facade, so experiments measure
// through the exact Primitive/Sweep path users run.
func facadeScenario(g *graph.Graph, a *chanassign.Assignment, opts ...crn.ScenarioOption) (*crn.Scenario, error) {
	return crn.NewScenarioFromParts(g, a, opts...)
}

// medianTimeToDiscovery sweeps prim over `trials` seeds on the shared
// scenario and returns the median slots-to-complete (incomplete runs
// censored at the full schedule length — a conservative treatment)
// plus the incomplete-run count.
func medianTimeToDiscovery(scn *crn.Scenario, prim crn.Primitive, trials int, seed uint64) (float64, int, error) {
	agg, err := sweepAggregate(scn, prim, trials, seed)
	if err != nil {
		return 0, 0, err
	}
	return agg.Metrics["timeToComplete"].Median, agg.Runs - agg.Completed, nil
}

// sweepAggregate runs one single-variant sweep through the public
// engine and returns its aggregate.
func sweepAggregate(scn *crn.Scenario, prim crn.Primitive, trials int, seed uint64) (*crn.Aggregate, error) {
	res, err := crn.Sweep(context.Background(), crn.SweepSpec{
		Primitive: prim,
		Variants:  []crn.Variant{{Scenario: scn}},
		Seeds:     trials,
		BaseSeed:  seed,
	})
	if err != nil {
		return nil, err
	}
	agg := &res.Aggregates[0]
	if agg.Failures > 0 {
		return nil, fmt.Errorf("experiments: %d/%d sweep runs failed", agg.Failures, agg.Runs)
	}
	return agg, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
