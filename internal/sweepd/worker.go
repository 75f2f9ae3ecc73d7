package sweepd

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"time"

	"crn"
	"crn/internal/sweepfile"
)

// Worker is the pull side of the service: it polls the daemon for
// leases, executes each leased shard through a crn.ShardRunner (the
// path `crnsweep run -shard k` takes), heartbeats while it works, and
// uploads the artifact. It keeps one runner for the job it is working
// on, so consecutive shards of one variant share its scenario. Run as
// many workers as you have machines — the daemon's validation and the
// facade's position-derived seeds make the fleet's output independent
// of who ran what.
type Worker struct {
	// Client connects to the daemon (required).
	Client *Client
	// Name identifies the worker in leases and logs (required).
	Name string
	// Workers is the per-shard simulation pool size (0: GOMAXPROCS).
	// It never affects output bytes.
	Workers int
	// Poll is the idle re-poll base interval (default 200ms). Each
	// empty or failed acquire backs off exponentially with jitter from
	// this base up to PollMax; a successful acquire resets to Poll.
	Poll time.Duration
	// PollMax caps the acquire backoff (default 20×Poll). A worker
	// fleet facing a down daemon converges to jittered polls at this
	// cap instead of hammering it in lockstep the moment it returns.
	PollMax time.Duration
	// MaxShards, when > 0, exits the worker after completing that many
	// shards (useful in tests and drain scripts). 0 runs until ctx is
	// cancelled.
	MaxShards int
	// AbandonAfter, when > 0, makes the worker exit immediately after
	// acquiring its Nth lease without completing, failing or
	// heartbeating it — a deterministic straggler for re-dispatch
	// tests and the CI kill-a-worker variant.
	AbandonAfter int
	// Log receives per-shard progress (default: log.Default()).
	Log *log.Logger
}

// Run executes the worker loop until ctx is cancelled (returning nil)
// or MaxShards/AbandonAfter triggers an exit. Transient daemon errors
// are retried at the poll interval rather than killing the worker.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.Name == "" {
		return fmt.Errorf("sweepd: worker needs a Client and a Name")
	}
	logf := log.Default().Printf
	if w.Log != nil {
		logf = w.Log.Printf
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	pollMax := w.PollMax
	if pollMax <= 0 {
		pollMax = 20 * poll
	}
	// Seed the jitter from the worker name: deterministic per worker,
	// decorrelated across the fleet.
	h := fnv.New64a()
	io.WriteString(h, w.Name)
	idle := newBackoff(poll, pollMax, h.Sum64())
	var cur jobRunner
	leased, completed := 0, 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.Client.Acquire(ctx, w.Name)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			logf("worker %s: acquire: %v (retrying)", w.Name, err)
		}
		if grant == nil {
			cur = jobRunner{} // idle: hold no scenarios
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(idle.next()):
			}
			continue
		}
		idle.reset()
		leased++
		if w.AbandonAfter > 0 && leased >= w.AbandonAfter {
			logf("worker %s: abandoning lease %s (shard %d of job %s) and exiting", w.Name, grant.Lease, grant.Shard, grant.Job)
			return nil
		}
		if err := w.executeLease(ctx, grant, &cur, logf); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			logf("worker %s: lease %s: %v", w.Name, grant.Lease, err)
			continue
		}
		completed++
		if w.MaxShards > 0 && completed >= w.MaxShards {
			logf("worker %s: completed %d shards, exiting", w.Name, completed)
			return nil
		}
	}
}

// jobRunner is the shard runner a worker keeps for the job it is
// working on, keyed by job id and plan hash.
type jobRunner struct {
	job, planHash string
	runner        *crn.ShardRunner
}

// runnerFor returns cur's runner when grant is a lease of the same
// job, and otherwise replaces it with a new one for grant's manifest,
// dropping the old job's scenarios.
func (w *Worker) runnerFor(grant *LeaseGrant, cur *jobRunner) (*crn.ShardRunner, error) {
	if cur.runner != nil && cur.job == grant.Job && cur.planHash == grant.Manifest.PlanHash {
		return cur.runner, nil
	}
	*cur = jobRunner{}
	spec, err := sweepfile.BuildSweepSpec(grant.Manifest.Spec, w.Workers)
	if err != nil {
		return nil, err
	}
	runner, err := crn.NewShardRunner(spec, grant.Manifest.Plan)
	if err != nil {
		return nil, err
	}
	*cur = jobRunner{job: grant.Job, planHash: grant.Manifest.PlanHash, runner: runner}
	return runner, nil
}

// executeLease runs one leased shard end to end. The shard's context
// is cancelled as soon as a heartbeat is rejected (lease lost to
// expiry), so a worker that was presumed dead stops burning CPU on
// work the daemon has already re-dispatched.
func (w *Worker) executeLease(ctx context.Context, grant *LeaseGrant, cur *jobRunner, logf func(string, ...any)) error {
	runner, err := w.runnerFor(grant, cur)
	if err != nil {
		// The manifest is unexecutable; tell the daemon rather than
		// silently re-polling the same poisoned shard.
		if ferr := w.Client.Fail(ctx, grant.Lease, err.Error()); ferr != nil {
			return fmt.Errorf("%v (and failing the lease: %v)", err, ferr)
		}
		return err
	}

	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := grant.TTL() / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-time.After(interval):
			}
			if err := w.Client.Heartbeat(shardCtx, grant.Lease); err != nil {
				if shardCtx.Err() == nil {
					logf("worker %s: lease %s lost: %v", w.Name, grant.Lease, err)
					cancel()
				}
				return
			}
		}
	}()

	logf("worker %s: running shard %d of job %s (lease %s)", w.Name, grant.Shard, grant.Job, grant.Lease)
	res, err := runner.Run(shardCtx, grant.Shard)
	cancel() // stop heartbeating before the upload settles the lease
	<-hbDone
	if err != nil {
		if ctx.Err() == nil && shardCtx.Err() == nil {
			if ferr := w.Client.Fail(ctx, grant.Lease, err.Error()); ferr != nil {
				return fmt.Errorf("%v (and failing the lease: %v)", err, ferr)
			}
		}
		return err
	}
	artifact, err := sweepfile.NewArtifact(grant.Manifest.PlanHash, res)
	if err != nil {
		return fmt.Errorf("checksumming shard %d: %w", grant.Shard, err)
	}
	if err := w.Client.Complete(ctx, grant.Lease, artifact); err != nil {
		if IsConflict(err) {
			// Expiry won the race: the daemon re-dispatched the shard
			// while we were uploading. Not a worker failure — the
			// deterministic bytes will come from whoever holds the new
			// lease.
			return fmt.Errorf("uploading shard %d: lease lost to expiry, shard re-dispatched: %w", grant.Shard, err)
		}
		return fmt.Errorf("uploading shard %d: %w", grant.Shard, err)
	}
	logf("worker %s: shard %d of job %s complete (%d runs)", w.Name, grant.Shard, grant.Job, len(res.Runs))
	return nil
}
