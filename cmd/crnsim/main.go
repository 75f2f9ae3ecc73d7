// Command crnsim runs one cognitive-radio scenario from flags and
// prints a JSON or text summary. Every algorithm goes through the
// shared crn.Primitive interface, so the output shape is the same
// Result envelope regardless of -algo; with -seeds > 1 the runs fan
// out over the crn.Sweep worker pool and the aggregate is printed
// instead.
//
// Spectrum dynamics come from -preset (a named scenario preset:
// quiet, urban-busy, bursty, adversarial-t, mobile-sparse,
// churn-heavy) and/or -spectrum (an explicit "+"-stacked model spec);
// topology dynamics come from -dynamics (churn / flap / waypoint,
// also "+"-stacked). Everything stacks onto the scenario, so primary
// traffic plus an adversary plus node churn is two flags away.
//
// Examples:
//
//	crnsim -topology gnp -n 24 -c 8 -k 2 -algo cseek
//	crnsim -topology star -n 17 -c 2 -k 1 -algo naive -json
//	crnsim -topology chain -n 16 -c 4 -k 2 -algo cgcast
//	crnsim -topology chain -n 16 -c 4 -k 2 -algo cgcast -seeds 16 -workers 4
//	crnsim -n 16 -c 5 -k 2 -preset urban-busy -seeds 8
//	crnsim -n 16 -c 5 -k 2 -spectrum "markov:0.05,0.15+adversary:2"
//	crnsim -n 16 -c 5 -k 2 -dynamics "churn:0.01,0.08"
//	crnsim -topology unitdisk -n 24 -c 5 -k 2 -dynamics "waypoint:0.005,4"
//	crnsim -n 16 -c 5 -k 2 -preset mobile-sparse -seeds 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"crn"
	"crn/internal/sweepfile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsim", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		topology = fs.String("topology", "gnp", "topology: gnp, star, path, grid, chain, tree, unitdisk, ring, complete, regular")
		n        = fs.Int("n", 24, "number of nodes")
		c        = fs.Int("c", 8, "channels per node")
		k        = fs.Int("k", 2, "guaranteed shared channels per neighbor pair")
		kmax     = fs.Int("kmax", 0, "max shared channels (0: same as k)")
		algo     = fs.String("algo", "cseek", "algorithm: cseek, ckseek, naive, uniform, cgcast, flood")
		khat     = fs.Int("khat", 0, "k̂ threshold for ckseek (0: kmax)")
		seed     = fs.Uint64("seed", 1, "random seed")
		seeds    = fs.Int("seeds", 1, "number of runs; > 1 sweeps and prints the aggregate")
		workers  = fs.Int("workers", 0, "sweep worker pool size (0: GOMAXPROCS)")
		preset   = fs.String("preset", "", "scenario preset: "+strings.Join(crn.PresetNames(), ", "))
		spec     = fs.String("spectrum", "", `spectrum models, "+"-stacked: periodic:<period>,<on> | markov:<pBusy>,<pFree> | poisson:<rate>,<hold> | adversary:<t>`)
		dyn      = fs.String("dynamics", "", `topology dynamics, "+"-stacked: churn:<pDown>,<pUp> | flap:<pDrop>,<pRestore> | waypoint:<speed>,<every> (waypoint needs -topology unitdisk)`)
		asJSON   = fs.Bool("json", false, "print JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts, err := sweepfile.Variant{
		Topology: *topology, N: *n, Channels: *c, K: *k, KMax: *kmax,
		Seed: *seed, Preset: *preset, Spectrum: *spec, Dynamics: *dyn,
	}.Options()
	if err != nil {
		return err
	}
	scn, err := crn.New(opts...)
	if err != nil {
		return err
	}

	name, kh := *algo, *khat
	if name == "" {
		name = "cseek"
	}
	if name == "ckseek" && kh == 0 {
		kh = scn.KMax()
	}
	prim, err := sweepfile.Primitive(name, kh, 0)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var out any
	if *seeds > 1 {
		res, err := crn.Sweep(ctx, crn.SweepSpec{
			Primitive: prim,
			Variants:  []crn.Variant{{Name: scn.String(), Scenario: scn}},
			Seeds:     *seeds,
			BaseSeed:  *seed + 1,
			Workers:   *workers,
		})
		if err != nil {
			return err
		}
		agg := res.Aggregates[0]
		if agg.Failures > 0 {
			first := ""
			for _, r := range res.Runs {
				if r.Err != "" {
					first = r.Err
					break
				}
			}
			return fmt.Errorf("%d/%d runs failed: %s", agg.Failures, agg.Runs, first)
		}
		out = agg
	} else {
		res, err := prim.Run(ctx, scn, *seed+1)
		if err != nil {
			return err
		}
		out = res
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(w, "scenario:  %s\n", scn)
	fmt.Fprintf(w, "primitive: %s\n", prim.Name())
	switch v := out.(type) {
	case *crn.Result:
		fmt.Fprintf(w, "result:    scheduleSlots=%d completedAtSlot=%d completed=%v\n",
			v.ScheduleSlots, v.CompletedAtSlot, v.Completed)
		if v.Discovery != nil {
			fmt.Fprintf(w, "detail:    %+v\n", *v.Discovery)
		}
		if v.Broadcast != nil {
			fmt.Fprintf(w, "detail:    %+v\n", *v.Broadcast)
		}
		if v.Spectrum != nil {
			fmt.Fprintf(w, "spectrum:  listens=%d deliveries=%d collisions=%d jammedListens=%d\n",
				v.Spectrum.Listens, v.Spectrum.Deliveries, v.Spectrum.Collisions, v.Spectrum.JammedListens)
		}
		if v.Topology != nil {
			fmt.Fprintf(w, "topology:  edges=+%d/-%d churn=%d/%d downSlots=%d partitionLosses=%d rediscovered=%d\n",
				v.Topology.EdgeAdds, v.Topology.EdgeRemoves, v.Topology.NodeJoins, v.Topology.NodeLeaves,
				v.Topology.DownNodeSlots, v.Topology.PartitionLosses, v.Topology.RediscoveredPairs)
		}
	case crn.Aggregate:
		fmt.Fprintf(w, "runs:      %d (%d completed)\n", v.Runs, v.Completed)
		names := make([]string, 0, len(v.Metrics))
		for name := range v.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-20s %s\n", name, v.Metrics[name])
		}
	}
	return nil
}
