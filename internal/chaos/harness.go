package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"crn"
	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

// MatrixConfig parameterizes a chaos matrix: N seeded fault schedules,
// each run against a fresh two-worker service stack, each surviving
// result byte-diffed against the single-process crn.Sweep reference.
type MatrixConfig struct {
	// Spec is the sweep to run (required).
	Spec *sweepfile.Spec
	// Shards to split the sweep into (default 4).
	Shards int
	// Workers is the worker-slot count (default 2). A slot whose
	// worker dies mid-shard gets a clean replacement.
	Workers int
	// SeedBase and Seeds define the chaos seeds: SeedBase … SeedBase+Seeds-1
	// (defaults 1 and 8).
	SeedBase uint64
	Seeds    int
	// ChaosSpec builds the fault spec per seed (default DefaultSpec).
	ChaosSpec func(seed uint64) Spec
	// LeaseTTL for the daemon under test (default 2s — short, so
	// abandoned leases re-dispatch fast).
	LeaseTTL time.Duration
	// Timeout bounds one seed's run (default 60s).
	Timeout time.Duration
	// Parallel seeds in flight at once (default min(4, NumCPU)).
	Parallel int
	// Log receives per-seed narration (default: discard).
	Log *log.Logger
}

// SeedResult is one seed's verdict.
type SeedResult struct {
	Seed uint64 `json:"seed"`
	// Completed: the job reached JobDone within the timeout.
	Completed bool `json:"completed"`
	// ByteIdentical: the merged result equals the single-process
	// reference, byte for byte. Meaningful only when Completed.
	ByteIdentical bool `json:"byteIdentical"`
	// AckedLost counts acked shards whose artifact did not validate
	// on disk afterwards — must always be 0, completed or not.
	AckedLost int `json:"ackedLost"`
	// Acked is how many shard completions the daemon acked.
	Acked int `json:"acked"`
	// Restarted: the daemon was killed and restarted mid-run.
	Restarted bool `json:"restarted"`
	// Injected counts faults actually fired, by kind.
	Injected map[string]int `json:"injected"`
	// Err describes a run that did not complete.
	Err string `json:"err,omitempty"`
}

// OK reports whether the seed upheld the contract: no acked artifact
// lost, and — if the run completed — byte-identical output.
func (r *SeedResult) OK() bool {
	if r.AckedLost > 0 {
		return false
	}
	return !r.Completed || r.ByteIdentical
}

// Reference computes the matrix's ground truth: the exact bytes an
// in-process crn.Sweep of the spec produces under the shared encoder.
func Reference(ctx context.Context, sf *sweepfile.Spec) ([]byte, error) {
	spec, err := sweepfile.BuildSweepSpec(sf, 0)
	if err != nil {
		return nil, err
	}
	res, err := crn.Sweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sweepfile.MarshalPretty(res)
}

// RunMatrix runs every seed (Parallel at a time) and returns one
// result per seed, in seed order. The error is only for setup
// failures (an unbuildable spec); per-seed failures live in the
// results.
func RunMatrix(ctx context.Context, cfg MatrixConfig) ([]SeedResult, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("chaos: MatrixConfig.Spec is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 8
	}
	if cfg.SeedBase == 0 {
		cfg.SeedBase = 1
	}
	if cfg.ChaosSpec == nil {
		cfg.ChaosSpec = DefaultSpec
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = min(4, runtime.NumCPU())
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	ref, err := Reference(ctx, cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("chaos: computing reference sweep: %w", err)
	}

	results := make([]SeedResult, cfg.Seeds)
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := cfg.SeedBase + uint64(i)
			results[i] = runSeed(ctx, cfg, seed, ref)
			r := &results[i]
			cfg.Log.Printf("chaos: seed %d: completed=%v identical=%v acked=%d lost=%d restarted=%v faults=%v err=%q",
				seed, r.Completed, r.ByteIdentical, r.Acked, r.AckedLost, r.Restarted, r.Injected, r.Err)
		}(i)
	}
	wg.Wait()
	return results, nil
}

// runSeed runs one complete service-under-chaos lifecycle: spool,
// daemon (with chaos FS + server middleware), worker fleet (with
// chaos transports, scheduled deaths and replacements), an optional
// daemon kill+restart mid-run, then the verdict.
func runSeed(ctx context.Context, cfg MatrixConfig, seed uint64, reference []byte) (out SeedResult) {
	out = SeedResult{Seed: seed}
	plan := NewPlan(cfg.ChaosSpec(seed))
	pp := plan.ProcessPlan(cfg.Workers, cfg.Shards)
	defer func() { out.Injected = plan.Injected() }()
	logf := func(format string, args ...any) {
		cfg.Log.Printf("seed %d: "+format, append([]any{seed}, args...)...)
	}

	spool, err := os.MkdirTemp("", fmt.Sprintf("crn-chaos-%d-*", seed))
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer os.RemoveAll(spool)

	runCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	// The acked-artifact ledger: every completion the daemon acks is
	// recorded here, and every recorded (job, shard) must hold a valid
	// artifact on the real disk afterwards — chaos may slow the run
	// down or abort it, but it must never un-happen an ack.
	var (
		ackMu     sync.Mutex
		acked     = map[string]map[int]bool{}
		ackCount  int
		restartCh = make(chan struct{})
		restarted bool
	)
	onDone := func(jobID string, shard int) {
		ackMu.Lock()
		defer ackMu.Unlock()
		if acked[jobID] == nil {
			acked[jobID] = map[int]bool{}
		}
		acked[jobID][shard] = true
		ackCount++
		if pp.RestartAfterDone > 0 && ackCount == pp.RestartAfterDone && !restarted {
			restarted = true
			close(restartCh)
		}
	}

	quiet := log.New(io.Discard, "", 0)
	chaosFS := NewFS(plan.Writes, plan.Reads, logf)
	newDaemon := func() (*sweepd.Server, error) {
		return sweepd.New(sweepd.Config{
			Spool:       spool,
			LeaseTTL:    cfg.LeaseTTL,
			MaxAttempts: 10,
			MaxInflight: 16,
			FS:          chaosFS,
			OnShardDone: onDone,
			Log:         quiet,
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		out.Err = err.Error()
		return out
	}
	base := "http://" + ln.Addr().String()

	// Daemon lifecycle, restartable on the same port and spool.
	var daemonMu sync.Mutex
	var srv *sweepd.Server
	var hs *http.Server
	startDaemon := func(l net.Listener) error {
		s, err := newDaemon()
		if err != nil {
			return err
		}
		h := &http.Server{Handler: Middleware(plan.Server, logf, s.Handler())}
		daemonMu.Lock()
		srv, hs = s, h
		daemonMu.Unlock()
		go h.Serve(l)
		return nil
	}
	// stopDaemon drains as crnsweepd serve does: closing the sweepd
	// server first ends held status waits, so Shutdown waits only for
	// the requests that do work.
	stopDaemon := func(drain time.Duration) {
		daemonMu.Lock()
		s, h := srv, hs
		srv, hs = nil, nil
		daemonMu.Unlock()
		if s != nil {
			s.Close()
		}
		if h != nil {
			sctx, scancel := context.WithTimeout(context.Background(), drain)
			h.Shutdown(sctx)
			scancel()
		}
	}
	if err := startDaemon(ln); err != nil {
		out.Err = err.Error()
		return out
	}
	defer stopDaemon(2 * time.Second)

	// Worker fleet: each slot supervises its worker, replacing one
	// that dies (a scheduled abandon) with a fresh generation.
	var workerWG sync.WaitGroup
	for slot := 0; slot < cfg.Workers; slot++ {
		workerWG.Add(1)
		go func(slot int) {
			defer workerWG.Done()
			abandon := pp.WorkerAbandons[slot]
			for gen := 0; runCtx.Err() == nil; gen++ {
				cl := sweepd.NewClient(base,
					sweepd.WithTransport(NewTransport(plan.Transport, logf)),
					sweepd.WithRequestTimeout(2*time.Second),
					sweepd.WithRetries(3, 50*time.Millisecond))
				w := &sweepd.Worker{
					Client:       cl,
					Name:         fmt.Sprintf("chaos-w%d.%d", slot, gen),
					Workers:      1,
					Poll:         25 * time.Millisecond,
					PollMax:      400 * time.Millisecond,
					AbandonAfter: abandon,
					Log:          quiet,
				}
				if abandon > 0 {
					logf("worker slot %d gen %d: scheduled to abandon lease %d", slot, gen, abandon)
				}
				w.Run(runCtx)
				abandon = 0 // replacements are healthy
			}
		}(slot)
	}
	defer workerWG.Wait()
	defer cancel() // stop workers before waiting on them

	// Scheduled daemon kill+restart: drain briefly, then bring the
	// daemon back on the same spool and port — recovery must re-queue
	// exactly the unacked shards.
	var restartWG sync.WaitGroup
	if pp.RestartAfterDone > 0 {
		restartWG.Add(1)
		go func() {
			defer restartWG.Done()
			select {
			case <-runCtx.Done():
				return
			case <-restartCh:
			}
			logf("restarting daemon after %d acked shards", pp.RestartAfterDone)
			out.Restarted = true
			stopDaemon(2 * time.Second)
			l2, err := net.Listen("tcp", ln.Addr().String())
			if err != nil {
				logf("re-listen: %v", err)
				return
			}
			if err := startDaemon(l2); err != nil {
				logf("daemon restart: %v", err)
			}
		}()
	}
	defer restartWG.Wait()

	// Control plane: no chaos transport (the middleware ignores
	// control paths too) — the observer must always be able to see.
	control := sweepd.NewClient(base,
		sweepd.WithRequestTimeout(2*time.Second),
		sweepd.WithRetries(5, 50*time.Millisecond))
	if err := control.WaitReady(runCtx, 5*time.Second); err != nil {
		out.Err = err.Error()
		return out
	}
	// Submit with reconciliation: the client never blindly retries a
	// failed Submit (the daemon may have queued the job), so on
	// failure we consult the job list — if a job is registered, adopt
	// it; if not, the submit provably never landed and resubmitting is
	// safe. This is the at-least-once-submit pattern the failure-model
	// doc prescribes for non-idempotent verbs.
	var id string
	for {
		var serr error
		if id, serr = control.Submit(runCtx, cfg.Spec, cfg.Shards); serr == nil {
			break
		}
		if list, lerr := control.Jobs(runCtx); lerr == nil && len(list.Jobs) > 0 {
			id = list.Jobs[0].ID
			logf("submit failed (%v) but job %s is registered; adopting it", serr, id)
			break
		}
		if runCtx.Err() != nil {
			out.Err = fmt.Sprintf("submit: %v", serr)
			return out
		}
		logf("submit failed (%v), no job registered; resubmitting", serr)
		select {
		case <-runCtx.Done():
		case <-time.After(100 * time.Millisecond):
		}
	}

	// Wait out the run, riding through the daemon-restart window:
	// transient status failures retry until the per-seed timeout.
	var finalErr error
	for {
		st, werr := control.Wait(runCtx, id, 50*time.Millisecond)
		if werr == nil {
			break
		}
		if st != nil {
			finalErr = werr // JobFailed: permanent
			break
		}
		if runCtx.Err() != nil {
			finalErr = fmt.Errorf("timed out: %w", werr)
			break
		}
		select {
		case <-runCtx.Done():
		case <-time.After(100 * time.Millisecond):
		}
	}

	// The invariant that must hold no matter how the run went: every
	// acked shard's artifact is valid on the real disk (read via the
	// plain OS filesystem — the verdict must not itself be chaosed).
	ackMu.Lock()
	out.Acked = ackCount
	ackedCopy := make(map[string][]int, len(acked))
	for jobID, shards := range acked {
		for k := range shards {
			ackedCopy[jobID] = append(ackedCopy[jobID], k)
		}
	}
	ackMu.Unlock()
	for jobID, shards := range ackedCopy {
		dir := filepath.Join(spool, "jobs", jobID)
		m, _, merr := sweepfile.LoadManifest(filepath.Join(dir, "manifest.json"))
		if merr != nil {
			out.AckedLost += len(shards)
			logf("acked job %s has no valid manifest: %v", jobID, merr)
			continue
		}
		for _, k := range shards {
			if _, aerr := sweepfile.LoadArtifact(m, dir, k); aerr != nil {
				out.AckedLost++
				logf("acked artifact lost: job %s shard %d: %v", jobID, k, aerr)
			}
		}
	}

	if finalErr != nil {
		out.Err = finalErr.Error()
		return out
	}
	out.Completed = true
	_, doc, err := control.Result(runCtx, id)
	if err != nil {
		out.Completed = false
		out.Err = fmt.Sprintf("result: %v", err)
		return out
	}
	out.ByteIdentical = bytes.Equal(doc, reference)
	if !out.ByteIdentical {
		out.Err = fmt.Sprintf("result diverged from reference: %d bytes vs %d", len(doc), len(reference))
	}
	return out
}
