package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, io.Discard); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if err := run([]string{"-scale", "quick", "-run", "E10", "-seed", "3"}, io.Discard); err != nil {
		t.Fatalf("quick E10: %v", err)
	}
}

// TestBenchSuiteNodeSlotVolumes checks that every engine, protocol and
// primitive entry declares the node-slot volume one operation
// simulates, so the report prints node-slots/s for each of them.
func TestBenchSuiteNodeSlotVolumes(t *testing.T) {
	specs, err := benchSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if strings.HasPrefix(spec.name, "engine/") || strings.HasPrefix(spec.name, "protocol/") || strings.HasPrefix(spec.name, "primitive/") {
			if spec.nodeSlotsOp <= 0 {
				t.Errorf("%s declares no node-slot volume", spec.name)
			}
		}
	}
}

func TestRunBenchBadFormat(t *testing.T) {
	if err := run([]string{"-bench", "-format", "yaml"}, io.Discard); err == nil {
		t.Error("unknown bench format accepted")
	}
}

func TestRunCompareRequiresBench(t *testing.T) {
	if err := run([]string{"-compare", "BENCH_4.json"}, io.Discard); err == nil {
		t.Error("-compare without -bench accepted")
	}
	if err := run([]string{"-bench", "-compare", "/nonexistent.json"}, io.Discard); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestCompareReports(t *testing.T) {
	baseline := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 0},
		{Name: "primitive/cseek", NsPerOp: 16e6, AllocsPerOp: 400},
		{Name: "retired/bench", NsPerOp: 1, AllocsPerOp: 1},
	}}

	// Within thresholds: the zero-alloc baseline stays at zero, the
	// nonzero one has headroom, a fresh benchmark has no baseline,
	// time is slower but only warns.
	ok := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 4000, AllocsPerOp: 0},
		{Name: "primitive/cseek", NsPerOp: 30e6, AllocsPerOp: 500},
		{Name: "primitive/new", NsPerOp: 1, AllocsPerOp: 99},
	}}
	var out strings.Builder
	if err := compareReports(&out, baseline, ok); err != nil {
		t.Fatalf("within-threshold report failed: %v", err)
	}
	for _, want := range []string{"WARN", "primitive/new", "retired/bench"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}

	// A zero-alloc hot loop growing even one alloc/op is a real
	// per-iteration regression (allocs/op is already amortized): fail,
	// and name the benchmark.
	bad := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 1},
		{Name: "primitive/cseek", NsPerOp: 16e6, AllocsPerOp: 400},
	}}
	err := compareReports(io.Discard, baseline, bad)
	if err == nil {
		t.Fatal("allocation regression passed the gate")
	}
	if !strings.Contains(err.Error(), "engine/slot") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}

	// A nonzero baseline regressing past 1.5× + slack fails too.
	bloat := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 0},
		{Name: "primitive/cseek", NsPerOp: 16e6, AllocsPerOp: 700},
	}}
	if err := compareReports(io.Discard, baseline, bloat); err == nil {
		t.Error("1.75x allocation growth passed the gate")
	}

	// Time-only regressions never fail.
	slow := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 30000, AllocsPerOp: 0},
		{Name: "primitive/cseek", NsPerOp: 160e6, AllocsPerOp: 400},
	}}
	if err := compareReports(io.Discard, baseline, slow); err != nil {
		t.Errorf("time-only regression failed the gate: %v", err)
	}
}

// TestCompareReportsRenames pins the rename/addition semantics in both
// directions: a benchmark present only in the current run and one
// present only in the baseline each produce a clear NOTE and neither
// gates — renaming a benchmark must not brick CI, in either direction.
func TestCompareReportsRenames(t *testing.T) {
	baseline := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 0},
		{Name: "engine/old-name", NsPerOp: 5000, AllocsPerOp: 3},
	}}
	current := BenchReport{Results: []BenchResult{
		{Name: "engine/slot", NsPerOp: 3100, AllocsPerOp: 0},
		{Name: "engine/new-name", NsPerOp: 4000, AllocsPerOp: 900},
	}}
	var out strings.Builder
	if err := compareReports(&out, baseline, current); err != nil {
		t.Fatalf("rename in both directions failed the gate: %v", err)
	}
	for _, want := range []string{
		"engine/new-name", "no baseline entry",
		"engine/old-name", "not in this run",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCompareReportsSkipped: entries skipped on either side (e.g.
// sweep/workers beyond the host's GOMAXPROCS) are excluded from the
// gate with an explicit SKIP line — even when the other side carries a
// number that would otherwise regress.
func TestCompareReportsSkipped(t *testing.T) {
	baseline := BenchReport{Results: []BenchResult{
		{Name: "sweep/workers=4", NsPerOp: 500e6, AllocsPerOp: 100},
		{Name: "sweep/workers=8", Skipped: true, Note: "workers=8 exceeds GOMAXPROCS=4"},
	}}
	current := BenchReport{Results: []BenchResult{
		// Skipped now, was measured in the baseline: no comparison.
		{Name: "sweep/workers=4", Skipped: true, Note: "workers=4 exceeds GOMAXPROCS=1"},
		// Measured now with what would be an allocation regression,
		// but the baseline was skipped: nothing to gate against.
		{Name: "sweep/workers=8", NsPerOp: 900e6, AllocsPerOp: 99999},
	}}
	var out strings.Builder
	if err := compareReports(&out, baseline, current); err != nil {
		t.Fatalf("skipped entries gated: %v", err)
	}
	if got := strings.Count(out.String(), "SKIP"); got != 2 {
		t.Errorf("want 2 SKIP lines, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "exceeds GOMAXPROCS") {
		t.Errorf("SKIP lines do not carry the skip note:\n%s", out.String())
	}
}
