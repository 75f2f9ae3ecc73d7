// Command crnsweepd runs the sweep orchestration service and its
// clients: a daemon that queues sweep jobs and leases shards to a
// fleet of pull-based workers, the worker itself, and thin verbs for
// submitting and following jobs. The spec and artifact formats are
// exactly cmd/crnsweep's (internal/sweepfile), and the service's
// contract is byte-identity: the merged result of a job equals the
// output of an in-process crn.Sweep of the same spec, no matter how
// many workers ran it or how many leases expired along the way.
//
// A minimal fleet:
//
//	crnsweepd serve  -addr 127.0.0.1:8471 -spool /var/tmp/crnspool &
//	crnsweepd worker -connect 127.0.0.1:8471 -name w1 &
//	crnsweepd worker -connect 127.0.0.1:8471 -name w2 &
//	id=$(crnsweepd submit -connect 127.0.0.1:8471 -spec spec.json -shards 4)
//	crnsweepd wait   -connect 127.0.0.1:8471 -job "$id" -out merged.json
//
// The daemon shuts down gracefully on SIGINT/SIGTERM; because every
// job's state lives in the spool, restarting it on the same -spool
// resumes in-flight jobs without re-running shards that already
// produced valid artifacts. Workers exit on SIGINT/SIGTERM too; any
// shard they held is re-dispatched when its lease expires.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crn/internal/chaos"
	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnsweepd:", err)
		os.Exit(1)
	}
}

const usage = `usage: crnsweepd <serve|worker|submit|status|result|wait|chaos> [flags]

  serve  -spool <dir> [-addr host:port] [-lease d] [-maxattempts n] [-maxinflight n] [-draintimeout d]
         run the orchestrator daemon (restart on the same -spool resumes jobs)
  worker -connect <addr> [-name s] [-workers n] [-poll d] [-pollmax d] [-maxshards n]
         run a worker: lease shards, execute, upload artifacts, heartbeat
  submit -connect <addr> -spec <file> [-shards k]
         queue a sweep; prints the job id
  status -connect <addr> [-job id]
         show one job (or all jobs) with per-shard state
  result -connect <addr> -job <id> [-out file]
         fetch a finished job's merged result (verbatim bytes)
  wait   -connect <addr> -job <id> [-out file] [-poll d]
         block until the job finishes, then fetch the result
  chaos  [-spec file] [-seeds n] [-seedbase n] [-shards k] [-workers n] [-parallel n] [-golden file] [-v]
         run the two-worker service matrix under n seeded fault schedules and
         byte-diff every surviving result against the single-process sweep
`

func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "serve":
		return cmdServe(ctx, rest, w)
	case "worker":
		return cmdWorker(ctx, rest, w)
	case "submit":
		return cmdSubmit(ctx, rest, w)
	case "status":
		return cmdStatus(ctx, rest, w)
	case "result":
		return cmdResult(ctx, rest, w)
	case "wait":
		return cmdWait(ctx, rest, w)
	case "chaos":
		return cmdChaos(ctx, rest, w)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(w, usage)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
}

// readHeaderTimeout bounds how long serve waits for a request's
// headers, so a client that opens a connection and stalls does not
// hold it. serve sets no read or write timeout: a status wait holds
// its reply for up to 30 s, and an artifact upload's body takes as
// long as the shard is large.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the http.Server serve runs h on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func cmdServe(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd serve", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr        = fs.String("addr", "127.0.0.1:8471", "listen address")
		spool       = fs.String("spool", "", "job spool directory (required)")
		leaseTTL    = fs.Duration("lease", 60*time.Second, "shard lease TTL; expired leases are re-dispatched")
		maxAttempts = fs.Int("maxattempts", 5, "lease attempts per shard before the job fails")
		maxInflight = fs.Int("maxinflight", 64, "concurrent requests before shedding 429s (0: unbounded)")
		drain       = fs.Duration("draintimeout", 10*time.Second, "on SIGTERM, wait up to this long for in-flight uploads to finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spool == "" {
		return fmt.Errorf("serve: -spool is required")
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv, err := sweepd.New(sweepd.Config{
		Spool:       *spool,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		MaxInflight: *maxInflight,
		Log:         logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(w, "crnsweepd: serving on %s (spool %s, lease %v)\n", ln.Addr(), *spool, *leaseTTL)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: http.Server.Shutdown stops accepting and waits
	// for in-flight requests — artifact uploads mid-POST included — so
	// a SIGTERM never drops a shard a worker already finished. Closing
	// the sweepd server first ends every held status wait, which would
	// otherwise hold the drain for its whole hold; an upload in flight
	// still merges its job. The bound keeps a wedged connection from
	// holding the process hostage.
	logger.Printf("sweepd: signal received, draining in-flight uploads (up to %v)", *drain)
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "crnsweepd: stopped cleanly (spool preserved; restart to resume)")
	return nil
}

func cmdWorker(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd worker", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		connect   = fs.String("connect", "", "daemon address (required)")
		name      = fs.String("name", "", "worker name (default: host-pid)")
		workers   = fs.Int("workers", 0, "per-shard simulation pool size (0: GOMAXPROCS); never affects bytes")
		poll      = fs.Duration("poll", 200*time.Millisecond, "idle re-poll base interval (backs off exponentially with jitter)")
		pollMax   = fs.Duration("pollmax", 0, "idle re-poll backoff cap (0: 20×poll)")
		maxShards = fs.Int("maxshards", 0, "exit after completing n shards (0: run until signalled)")
		abandon   = fs.Int("abandon", 0, "exit after acquiring the nth lease without completing it (straggler simulation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: -connect is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	c := sweepd.NewClient(*connect)
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return err
	}
	wk := &sweepd.Worker{
		Client:       c,
		Name:         *name,
		Workers:      *workers,
		Poll:         *poll,
		PollMax:      *pollMax,
		MaxShards:    *maxShards,
		AbandonAfter: *abandon,
		Log:          log.New(os.Stderr, "", log.LstdFlags),
	}
	fmt.Fprintf(w, "crnsweepd: worker %s pulling from %s\n", *name, *connect)
	return wk.Run(ctx)
}

func cmdSubmit(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd submit", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		connect  = fs.String("connect", "", "daemon address (required)")
		specPath = fs.String("spec", "", "sweep spec file (JSON, required)")
		shards   = fs.Int("shards", 1, "shard count to plan")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" || *specPath == "" {
		return fmt.Errorf("submit: -connect and -spec are required")
	}
	sf, err := sweepfile.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	c := sweepd.NewClient(*connect)
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return err
	}
	id, err := c.Submit(ctx, sf, *shards)
	if err != nil {
		return err
	}
	// Bare id on stdout: `id=$(crnsweepd submit ...)` just works.
	fmt.Fprintln(w, id)
	return nil
}

func printStatus(w io.Writer, st *sweepd.JobStatus) {
	fmt.Fprintf(w, "job %s  %-8s %d/%d shards done  %d runs  plan %s\n",
		st.ID, st.State, st.Done, st.Total, st.Runs, st.PlanHash)
	for _, sh := range st.Shards {
		line := fmt.Sprintf("  shard %-3d %-8s attempts=%d", sh.Shard, sh.State, sh.Attempts)
		if sh.Worker != "" {
			line += " worker=" + sh.Worker
		}
		fmt.Fprintln(w, line)
	}
	if st.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", st.Error)
	}
}

func cmdStatus(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd status", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		connect = fs.String("connect", "", "daemon address (required)")
		jobID   = fs.String("job", "", "job id (default: list all jobs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("status: -connect is required")
	}
	c := sweepd.NewClient(*connect)
	if *jobID != "" {
		st, err := c.Status(ctx, *jobID)
		if err != nil {
			return err
		}
		printStatus(w, st)
		return nil
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	if len(list.Jobs) == 0 {
		fmt.Fprintln(w, "no jobs")
		return nil
	}
	for i := range list.Jobs {
		printStatus(w, &list.Jobs[i])
	}
	return nil
}

// fetchResult writes a finished job's merged bytes verbatim to -out
// (or stdout) — verbatim is the point: the file must byte-match an
// in-process sweep's output.
func fetchResult(ctx context.Context, c *sweepd.Client, jobID, out string, w io.Writer) error {
	_, doc, err := c.Result(ctx, jobID)
	if err != nil {
		return err
	}
	if out == "" {
		_, err = w.Write(doc)
		return err
	}
	if err := sweepfile.WriteFileAtomic(out, doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "job %s result → %s\n", jobID, out)
	return nil
}

func cmdResult(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd result", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		connect = fs.String("connect", "", "daemon address (required)")
		jobID   = fs.String("job", "", "job id (required)")
		out     = fs.String("out", "", "output file (default: print to stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" || *jobID == "" {
		return fmt.Errorf("result: -connect and -job are required")
	}
	return fetchResult(ctx, sweepd.NewClient(*connect), *jobID, *out, w)
}

// chaosDefaultSpec is the sweep the chaos matrix runs when no -spec is
// given: small enough that one shard takes well under a lease TTL, two
// variants so merge ordering is exercised.
func chaosDefaultSpec() *sweepfile.Spec {
	return &sweepfile.Spec{
		Primitive: "cseek",
		Seeds:     4,
		BaseSeed:  42,
		Variants: []sweepfile.Variant{
			{Name: "quiet-path", Topology: "path", N: 6, Channels: 3, K: 2, Seed: 1},
			{Name: "busy-star", Topology: "star", N: 8, Channels: 4, K: 2, Seed: 2, Preset: "urban-busy"},
		},
	}
}

func cmdChaos(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd chaos", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		specPath = fs.String("spec", "", "sweep spec file (default: a built-in two-variant spec)")
		seeds    = fs.Int("seeds", 32, "fault-schedule seeds to run")
		seedBase = fs.Uint64("seedbase", 1, "first chaos seed (schedules are seedbase..seedbase+seeds-1)")
		shards   = fs.Int("shards", 4, "shards per job")
		workers  = fs.Int("workers", 2, "worker slots per run")
		lease    = fs.Duration("lease", 1500*time.Millisecond, "daemon lease TTL under test")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-seed run timeout")
		parallel = fs.Int("parallel", 0, "seeds in flight at once (0: min(4, NumCPU))")
		golden   = fs.String("golden", "", "byte-diff the reference sweep against this file first")
		verbose  = fs.Bool("v", false, "narrate injected faults and per-seed progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds <= 0 {
		return fmt.Errorf("chaos: -seeds must be positive")
	}
	sf := chaosDefaultSpec()
	if *specPath != "" {
		var err error
		if sf, err = sweepfile.LoadSpec(*specPath); err != nil {
			return err
		}
	}
	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "chaos: ", 0)
	}
	// Pin the ground truth before injecting anything: the reference is
	// the in-process sweep, and -golden lets CI assert that reference
	// itself matches a committed file, so a drifting encoder can't hide
	// behind a self-consistent matrix.
	if *golden != "" {
		want, err := os.ReadFile(*golden)
		if err != nil {
			return err
		}
		ref, err := chaos.Reference(ctx, sf)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, want) {
			return fmt.Errorf("chaos: reference sweep diverged from golden %s (%d bytes vs %d)", *golden, len(ref), len(want))
		}
		fmt.Fprintf(w, "reference matches golden %s (%d bytes)\n", *golden, len(want))
	}

	results, err := chaos.RunMatrix(ctx, chaos.MatrixConfig{
		Spec:     sf,
		Shards:   *shards,
		Workers:  *workers,
		SeedBase: *seedBase,
		Seeds:    *seeds,
		LeaseTTL: *lease,
		Timeout:  *timeout,
		Parallel: *parallel,
		Log:      logger,
	})
	if err != nil {
		return err
	}

	completed, failed := 0, 0
	for i := range results {
		r := &results[i]
		verdict := "ok"
		switch {
		case !r.OK():
			verdict = "FAIL"
			failed++
		case !r.Completed:
			verdict = "timeout" // chaos won this round; contract still held
		}
		if r.Completed {
			completed++
		}
		line := fmt.Sprintf("seed %-4d %-7s acked=%d lost=%d", r.Seed, verdict, r.Acked, r.AckedLost)
		if r.Restarted {
			line += " restarted"
		}
		if r.Err != "" {
			line += "  (" + r.Err + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "chaos: %d/%d seeds completed byte-identical, %d contract violations\n",
		completed, len(results), failed)
	if failed > 0 {
		return fmt.Errorf("chaos: %d seed(s) violated the byte-identity/no-lost-ack contract", failed)
	}
	if completed == 0 {
		return fmt.Errorf("chaos: no seed completed its run — hardening regressed, not chaos winning")
	}
	return nil
}

func cmdWait(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crnsweepd wait", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		connect = fs.String("connect", "", "daemon address (required)")
		jobID   = fs.String("job", "", "job id (required)")
		out     = fs.String("out", "", "result output file (default: print to stdout)")
		poll    = fs.Duration("poll", 500*time.Millisecond, "least time between status requests; each is held until the job ends, so wait returns when the merge lands")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" || *jobID == "" {
		return fmt.Errorf("wait: -connect and -job are required")
	}
	c := sweepd.NewClient(*connect)
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return err
	}
	st, err := c.Wait(ctx, *jobID, *poll)
	if err != nil {
		return err
	}
	if *out != "" { // keep stdout pure JSON when the result goes there
		fmt.Fprintf(w, "job %s done: %d/%d shards\n", st.ID, st.Done, st.Total)
	}
	return fetchResult(ctx, c, *jobID, *out, w)
}
