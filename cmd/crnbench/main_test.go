package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crn/internal/sweepfile"
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

// TestCompareReportsOtherHost: against a baseline from another host
// (or one that recorded no host), compare prints one NOTE instead of
// any wall-time warning, and allocations still gate; against the same
// host, a slower entry warns.
func TestCompareReportsOtherHost(t *testing.T) {
	host := func(cpu string, r ...BenchResult) BenchReport {
		return BenchReport{CPU: cpu, GoMaxProcs: 2, GoVersion: "go1.24.0", Results: r}
	}
	slow := BenchResult{Name: "engine/slot", NsPerOp: 9000, AllocsPerOp: 0}
	base := BenchResult{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 0}
	for _, baseline := range []BenchReport{
		host("Xeon A", base),
		{Results: []BenchResult{base}},
	} {
		var out strings.Builder
		if err := compareReports(&out, baseline, host("Xeon B", slow)); err != nil {
			t.Fatalf("time-only difference failed the gate: %v", err)
		}
		if got := strings.Count(out.String(), "another host"); got != 1 || strings.Contains(out.String(), "WARN") {
			t.Errorf("want one another-host NOTE and no WARN, got:\n%s", out.String())
		}
		bloat := host("Xeon B", BenchResult{Name: "engine/slot", NsPerOp: 3000, AllocsPerOp: 1})
		if err := compareReports(io.Discard, baseline, bloat); err == nil {
			t.Error("an allocation regression against another host's baseline passed the gate")
		}
	}
	var out strings.Builder
	if err := compareReports(&out, host("Xeon A", base), host("Xeon A", slow)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARN") || strings.Contains(out.String(), "another host") {
		t.Errorf("same host: want a WARN and no another-host NOTE, got:\n%s", out.String())
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

// TestSelectSpecs: -run under -bench keeps the named entries in suite
// order, once each, and refuses a name the suite does not have.
func TestSelectSpecs(t *testing.T) {
	specs := []benchSpec{{name: "engine/slot"}, {name: "engine/slot-range"}, {name: "primitive/cgcast"}}
	got, err := selectSpecs(specs, "primitive/cgcast, engine/slot,primitive/cgcast")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].name != "engine/slot" || got[1].name != "primitive/cgcast" {
		t.Errorf("selected %v, want engine/slot then primitive/cgcast", got)
	}
	if all, err := selectSpecs(specs, ""); err != nil || len(all) != len(specs) {
		t.Errorf("empty list selected %d of %d entries (err %v)", len(all), len(specs), err)
	}
	if _, err := selectSpecs(specs, "engine/slot,engine/nope"); err == nil || !strings.Contains(err.Error(), "engine/nope") {
		t.Errorf("unknown entry: err = %v, want one naming engine/nope", err)
	}
}

// TestRunBenchUnknownEntry: an unknown -bench entry fails before any
// entry runs, as an unknown experiment ID does.
func TestRunBenchUnknownEntry(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-bench", "-run", "engine/slot,engine/nope"}, &out)
	if err == nil || !strings.Contains(err.Error(), "engine/nope") {
		t.Fatalf("err = %v, want an unknown-entry error", err)
	}
	if strings.Contains(out.String(), "ns/op") {
		t.Errorf("entries ran before the error:\n%s", out.String())
	}
}

// TestRunBenchEntryFilter runs one entry against a two-entry baseline:
// the report holds only that entry, -compare scores it, and the
// baseline's other entry is a NOTE rather than a failure.
func TestRunBenchEntryFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark entry for about a second")
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	doc, err := json.Marshal(BenchReport{Results: []BenchResult{
		{Name: "spectrum/schedule-fill", NsPerOp: 1e6, AllocsPerOp: 1 << 20},
		{Name: "engine/slot", NsPerOp: 1, AllocsPerOp: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	var out strings.Builder
	if err := run([]string{"-bench", "-run", "spectrum/schedule-fill", "-out", report, "-compare", baseline}, &out); err != nil {
		t.Fatalf("filtered run failed: %v\n%s", err, out.String())
	}
	var got BenchReport
	doc, err = os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Name != "spectrum/schedule-fill" {
		t.Errorf("report holds %+v, want only spectrum/schedule-fill", got.Results)
	}
	for _, want := range []string{"NOTE  engine/slot", "not selected by -run", "no allocation regressions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRoundtripSpecIsTestdata: the service/roundtrip rung submits
// cmd/crnsweep/testdata/spec.json, written out in roundtripSpec.
func TestRoundtripSpecIsTestdata(t *testing.T) {
	want, err := sweepfile.LoadSpec(filepath.Join("..", "crnsweep", "testdata", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := roundtripSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("roundtripSpec() = %+v, testdata spec %+v", got, want)
	}
}

// TestRoundtripJob runs one op of the service/roundtrip rung: the
// daemon starts, the workers run the job's shards, and the merged
// result comes back.
func TestRoundtripJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a job through an in-process daemon")
	}
	svc, err := startRoundtrip()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	if err := svc.job(roundtripSpec()); err != nil {
		t.Fatal(err)
	}
}
