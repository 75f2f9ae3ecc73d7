// Command crnbench regenerates the paper-reproduction experiments
// (E1–E16, see DESIGN.md's experiment index) and prints their tables,
// or — with -bench — runs the performance benchmark suite and emits a
// machine-readable report of the simulator's hot paths.
//
// Usage:
//
//	crnbench [-scale quick|full] [-run E1,E7] [-seed 42] [-list]
//	crnbench -bench [-run engine/slot,primitive/cgcast] [-format json|text]
//	         [-out BENCH.json] [-compare BENCH_7.json] [-cpuprofile DIR] [-memprofile DIR]
//
// Under -bench, -run names the benchmark entries to run; -compare then
// scores only those, and notes the baseline's other entries.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"crn/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnbench", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		scaleName = fs.String("scale", "full", "experiment scale: quick or full")
		runList   = fs.String("run", "", "comma-separated experiment IDs, or benchmark entry names under -bench (default: all)")
		seed      = fs.Uint64("seed", 42, "master random seed")
		list      = fs.Bool("list", false, "list experiments and exit")
		bench     = fs.Bool("bench", false, "run the performance benchmark suite instead of experiments")
		format    = fs.String("format", "text", "benchmark report format: text or json")
		out       = fs.String("out", "", "also write the JSON benchmark report to this file")
		compare   = fs.String("compare", "", "baseline BENCH_*.json to gate against: fail on allocs/op regressions, warn on ns/op")
		cpuDir    = fs.String("cpuprofile", "", "directory receiving one CPU pprof file per benchmark entry")
		memDir    = fs.String("memprofile", "", "directory receiving one heap pprof file per benchmark entry")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *bench {
		if *format != "text" && *format != "json" {
			return fmt.Errorf("unknown format %q (want text or json)", *format)
		}
		return runBench(w, *runList, *format, *out, *compare, *cpuDir, *memDir)
	}
	if *compare != "" {
		return fmt.Errorf("-compare requires -bench")
	}
	if *cpuDir != "" || *memDir != "" {
		return fmt.Errorf("-cpuprofile/-memprofile require -bench")
	}

	defs := experiments.All()
	if *list {
		for _, d := range defs {
			fmt.Fprintf(w, "%-4s %-34s %s\n", d.ID, d.Title, d.Claim)
		}
		return nil
	}

	var scale experiments.Scale
	switch strings.ToLower(*scaleName) {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}

	if *runList != "" {
		var selected []experiments.Definition
		for _, id := range strings.Split(*runList, ",") {
			d, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, d)
		}
		defs = selected
	}

	fmt.Fprintf(w, "# CRN primitives experiment suite (scale=%s, seed=%d)\n\n", *scaleName, *seed)
	for _, d := range defs {
		start := time.Now()
		tbl, err := d.Run(scale, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "_(%s took %.1fs)_\n\n", d.ID, time.Since(start).Seconds())
	}
	return nil
}
