// Command crnsweep is the distributed front end of crn.Sweep: it
// partitions a declaratively-specified sweep into shards that
// independent processes (CI matrix jobs, cluster workers, extra
// terminals) execute, and merges the per-shard artifacts back into
// the exact output a single-process sweep would have produced —
// byte-identical, because per-run seeds derive from the sweep's base
// seed and grid position alone and the aggregation path is shared
// with crn.Sweep.
//
// The pipeline is manifest-driven:
//
//	crnsweep plan   -spec spec.json -shards 4 -dir out   # write out/manifest.json
//	crnsweep run    -manifest out/manifest.json -shard 2 # write out/shard-2.json
//	crnsweep merge  -manifest out/manifest.json          # write out/merged.json
//	crnsweep resume -manifest out/manifest.json          # re-run invalid/missing shards, then merge
//	crnsweep sweep  -spec spec.json -out single.json     # single-process reference (crn.Sweep)
//
// With -remote, sweep hands the same spec to a running crnsweepd
// orchestrator instead of executing locally — the result bytes are
// identical either way (that is the service's contract):
//
//	crnsweep sweep -spec spec.json -remote http://host:8471 -shards 4 -out single.json
//
// The manifest records the spec, the shard plan and a hash over both;
// every shard artifact embeds that hash, so merge and resume refuse
// artifacts produced under a different spec, plan or base seed, and
// resume skips exactly the shards whose artifacts still validate.
// The formats live in internal/sweepfile, shared with crnsweepd.
//
// SIGINT/SIGTERM cancel in-flight runs cleanly: the context reaches
// every shard run and crn.Sweep, and output files are written via
// temp-file-plus-rename, so an interrupted invocation never leaves a
// half-written artifact for resume to trip over.
//
// The spec file is a JSON mirror of crn.SweepSpec (see the package
// README section "Distributed sweeps" for the format):
//
//	{
//	  "primitive": "cseek",
//	  "seeds": 64,
//	  "baseSeed": 42,
//	  "variants": [
//	    {"name": "quiet-path", "topology": "path", "n": 6,
//	     "channels": 3, "k": 2, "seed": 1, "preset": "quiet"}
//	  ]
//	}
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"crn"
	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnsweep:", err)
		os.Exit(1)
	}
}

const usage = `usage: crnsweep <plan|run|merge|resume|sweep> [flags]

  plan   -spec <file> -shards <k> -dir <dir>      partition a sweep, write <dir>/manifest.json
  run    -manifest <file> -shard <k> [-workers n] execute one shard, write its artifact
  merge  -manifest <file> [-out <file>]           merge all shard artifacts into the sweep result
  resume -manifest <file> [-workers n]            re-run missing/invalid shards, then merge
  sweep  -spec <file> [-out <file>] [-workers n]  single-process crn.Sweep of the same spec
         [-remote <addr> [-shards k]]             … or submit to a crnsweepd orchestrator and wait
`

func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "plan":
		return cmdPlan(rest, w)
	case "run":
		return cmdRun(ctx, rest, w)
	case "merge":
		return cmdMerge(rest, w)
	case "resume":
		return cmdResume(ctx, rest, w)
	case "sweep":
		return cmdSweep(ctx, rest, w)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(w, usage)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
}

func cmdPlan(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweep plan", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		specPath = fs.String("spec", "", "sweep spec file (JSON, required)")
		shards   = fs.Int("shards", 1, "number of shards")
		dir      = fs.String("dir", ".", "output directory for the manifest and artifacts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("plan: -spec is required")
	}
	sf, err := sweepfile.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	m, err := sweepfile.NewManifest(sf, *shards)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*dir, "manifest.json")
	if err := sweepfile.WriteJSON(path, m); err != nil {
		return err
	}
	total := len(m.Plan.Variants) * m.Plan.Seeds
	fmt.Fprintf(w, "planned %d runs (%d variants × %d seeds) into %d shards: %s\n",
		total, len(m.Plan.Variants), m.Plan.Seeds, len(m.Plan.Shards), path)
	return nil
}

func cmdRun(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweep run", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		manifestPath = fs.String("manifest", "", "manifest file (required)")
		shard        = fs.Int("shard", -1, "shard index to execute (required)")
		workers      = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS); does not affect output bytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifestPath == "" {
		return fmt.Errorf("run: -manifest is required")
	}
	m, dir, err := sweepfile.LoadManifest(*manifestPath)
	if err != nil {
		return err
	}
	if *shard < 0 || *shard >= len(m.Plan.Shards) {
		return fmt.Errorf("run: -shard %d out of range (plan has %d shards)", *shard, len(m.Plan.Shards))
	}
	spec, err := sweepfile.BuildSweepSpec(m.Spec, *workers)
	if err != nil {
		return err
	}
	res, err := crn.RunShard(ctx, spec, m.Plan, *shard)
	if err != nil {
		return err
	}
	a, err := sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, m.Artifacts[*shard])
	if err := sweepfile.WriteJSON(path, a); err != nil {
		return err
	}
	fmt.Fprintf(w, "shard %d: %d runs → %s\n", *shard, len(res.Runs), path)
	return nil
}

// mergeAndWrite merges shard results and writes the merge output,
// printing the per-variant aggregates.
func mergeAndWrite(m *sweepfile.Manifest, outPath string, results []*crn.ShardResult, w io.Writer) error {
	merged, err := crn.MergeShards(m.Plan, results...)
	if err != nil {
		return err
	}
	if err := sweepfile.WriteJSON(outPath, merged); err != nil {
		return err
	}
	for _, agg := range merged.Aggregates {
		fmt.Fprintf(w, "%-24s runs=%d completed=%d failures=%d\n",
			agg.Variant, agg.Runs, agg.Completed, agg.Failures)
	}
	fmt.Fprintf(w, "merged %d shards → %s\n", len(results), outPath)
	return nil
}

func cmdMerge(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweep merge", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		manifestPath = fs.String("manifest", "", "manifest file (required)")
		out          = fs.String("out", "", "merge output file (default: manifest's merged name)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifestPath == "" {
		return fmt.Errorf("merge: -manifest is required")
	}
	m, dir, err := sweepfile.LoadManifest(*manifestPath)
	if err != nil {
		return err
	}
	outPath := filepath.Join(dir, m.Merged)
	if *out != "" {
		outPath = *out // caller-relative, not manifest-relative
	}
	results := make([]*crn.ShardResult, len(m.Plan.Shards))
	for k := range results {
		res, err := sweepfile.LoadArtifact(m, dir, k)
		if err != nil {
			return fmt.Errorf("merge: shard %d artifact invalid (run `crnsweep resume` to regenerate): %w", k, err)
		}
		results[k] = res
	}
	return mergeAndWrite(m, outPath, results, w)
}

func cmdResume(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweep resume", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		manifestPath = fs.String("manifest", "", "manifest file (required)")
		workers      = fs.Int("workers", 0, "worker pool size for re-run shards (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifestPath == "" {
		return fmt.Errorf("resume: -manifest is required")
	}
	m, dir, err := sweepfile.LoadManifest(*manifestPath)
	if err != nil {
		return err
	}
	spec, err := sweepfile.BuildSweepSpec(m.Spec, *workers)
	if err != nil {
		return err
	}
	// A crash between temp-write and rename leaves `.tmp-` debris; sweep
	// it before validating so a half-written artifact can't linger.
	if removed, err := sweepfile.RemoveStaleTemps(sweepfile.OS, dir); err != nil {
		return err
	} else if len(removed) > 0 {
		fmt.Fprintf(w, "swept %d stale temp file(s) from %s\n", len(removed), dir)
	}
	// One runner for every shard re-run: consecutive missing shards of
	// one variant share its scenario.
	runner, err := crn.NewShardRunner(spec, m.Plan)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	results := make([]*crn.ShardResult, len(m.Plan.Shards))
	for k := range results {
		if res, err := sweepfile.LoadArtifact(m, dir, k); err == nil {
			fmt.Fprintf(w, "shard %d: artifact valid, skipped\n", k)
			results[k] = res
			continue
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(w, "shard %d: invalid artifact (%v), re-running\n", k, err)
		} else {
			fmt.Fprintf(w, "shard %d: no artifact, running\n", k)
		}
		res, err := runner.Run(ctx, k)
		if err != nil {
			return fmt.Errorf("resume: shard %d: %w", k, err)
		}
		a, err := sweepfile.NewArtifact(m.PlanHash, res)
		if err != nil {
			return err
		}
		if err := sweepfile.WriteJSON(filepath.Join(dir, m.Artifacts[k]), a); err != nil {
			return err
		}
		results[k] = res
	}
	return mergeAndWrite(m, filepath.Join(dir, m.Merged), results, w)
}

func cmdSweep(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweep sweep", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		specPath = fs.String("spec", "", "sweep spec file (JSON, required)")
		out      = fs.String("out", "", "output file (default: print to stdout)")
		workers  = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS); does not affect output bytes")
		remote   = fs.String("remote", "", "crnsweepd base URL; run the sweep on the service instead of in-process")
		shards   = fs.Int("shards", 1, "shard count for -remote submission")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("sweep: -spec is required")
	}
	sf, err := sweepfile.LoadSpec(*specPath)
	if err != nil {
		return err
	}

	var doc []byte
	if *remote != "" {
		doc, err = remoteSweep(ctx, *remote, sf, *shards, w)
	} else {
		doc, err = localSweep(ctx, sf, *workers)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = w.Write(doc)
		return err
	}
	if err := sweepfile.WriteFileAtomic(*out, doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "swept → %s\n", *out)
	return nil
}

func localSweep(ctx context.Context, sf *sweepfile.Spec, workers int) ([]byte, error) {
	spec, err := sweepfile.BuildSweepSpec(sf, workers)
	if err != nil {
		return nil, err
	}
	res, err := crn.Sweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sweepfile.MarshalPretty(res)
}

// remoteSweep submits the spec to a crnsweepd orchestrator, waits for
// the job and returns the merged result bytes — which the service
// guarantees to be the bytes localSweep would have produced.
func remoteSweep(ctx context.Context, addr string, sf *sweepfile.Spec, shards int, w io.Writer) ([]byte, error) {
	c := sweepd.NewClient(addr)
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	id, err := c.Submit(ctx, sf, shards)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "submitted job %s to %s (%d shards)\n", id, addr, shards)
	if _, err := c.Wait(ctx, id, 500*time.Millisecond); err != nil {
		return nil, err
	}
	_, doc, err := c.Result(ctx, id)
	return doc, err
}
