// Command crntrace runs a small CSEEK discovery and dumps every
// message delivery slot by slot — a teaching and debugging view of the
// radio model.
//
// Usage:
//
//	crntrace [-n 6] [-c 3] [-k 2] [-seed 1] [-max 200]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crn/internal/chanassign"
	"crn/internal/core"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crntrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crntrace", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		n     = fs.Int("n", 6, "number of nodes (star topology)")
		c     = fs.Int("c", 3, "channels per node")
		k     = fs.Int("k", 2, "shared channels per neighbor pair")
		seed  = fs.Uint64("seed", 1, "random seed")
		max   = fs.Int64("max", 200, "maximum deliveries to print")
		jsonl = fs.Bool("jsonl", false, "emit the full trace as JSON Lines instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := graph.Star(*n)
	a, err := chanassign.SharedCore(*n, *c, *k, rng.New(*seed))
	if err != nil {
		return err
	}
	p := core.Params{N: *n, C: *c, K: *k, KMax: *k, Delta: g.MaxDegree()}
	if err := p.Normalize(); err != nil {
		return err
	}

	master := rng.New(*seed + 1)
	protos := make([]radio.Protocol, *n)
	var schedule int64
	for u := 0; u < *n; u++ {
		s, err := core.NewCSeek(p, core.Env{ID: radio.NodeID(u), C: *c, Rand: master.Split(uint64(u))})
		if err != nil {
			return err
		}
		schedule = s.TotalSlots()
		protos[u] = s
	}
	nw := &radio.Network{Graph: g, Assign: a}
	var rec trace.Recorder
	if *jsonl {
		nw.Trace = rec.Trace
	} else {
		printed := int64(0)
		nw.Trace = func(slot int64, listener radio.NodeID, ch int32, d radio.Delivery) {
			if printed >= *max {
				return
			}
			printed++
			fmt.Fprintf(w, "%6d  node %-3d   <-  node %-3d (ch %d)\n", slot, listener, d.From, ch)
		}
	}
	e, err := radio.NewEngine(nw, protos)
	if err != nil {
		return err
	}

	if *jsonl {
		e.Run(schedule + 1)
		return rec.WriteJSONL(w)
	}

	fmt.Fprintf(w, "# CSEEK on a %d-node star, c=%d k=%d, schedule %d slots\n", *n, *c, *k, schedule)
	fmt.Fprintf(w, "# slot  listener  <-  sender  (global channel)\n")
	st := e.Run(schedule + 1)
	fmt.Fprintf(w, "# done: %d slots, %d deliveries, %d collisions\n",
		st.Slots, st.Deliveries, st.Collisions)
	return nil
}
