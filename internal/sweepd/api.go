// Package sweepd is the sweep orchestration service behind
// cmd/crnsweepd: a long-running HTTP/JSON daemon that accepts sweep
// specs (the cmd/crnsweep format, via internal/sweepfile), plans them
// into shards with crn.PlanShards, queues the shards as jobs, and
// leases them to pull-based worker processes that execute them through
// a crn.ShardRunner and stream the artifacts back. Leases expire unless
// heartbeaten, so shards held by stragglers or dead workers are
// re-dispatched; artifacts are validated with the same planHash and
// per-run identity checks the offline pipeline uses; completed jobs
// are merged with crn.MergeShards and the result served back.
//
// The service's correctness contract is byte-identity: a job executed
// by any number of workers, in any interleaving, with any amount of
// lease churn, returns exactly the bytes an in-process crn.Sweep of
// the same spec would produce. Everything that makes that true —
// position-derived per-run seeds, the shared aggregation path, the
// single pretty-JSON encoder — lives in the crn facade and
// internal/sweepfile; the daemon only moves validated artifacts
// around.
//
// Job state lives in a spool directory (one subdirectory per job,
// holding exactly the files cmd/crnsweep would write: manifest.json,
// shard-k.json, merged.json, plus a small job.json), so a restarted
// daemon recovers in-flight jobs and re-queues only the shards whose
// artifacts are missing or invalid — the same artifact-validity test
// `crnsweep resume` applies.
package sweepd

import (
	"time"

	"crn/internal/sweepfile"
)

// The HTTP surface. All bodies are JSON; errors come back as
// {"error": "..."} with a non-2xx status.
//
//	POST /api/v1/jobs                   SubmitRequest   → SubmitResponse
//	GET  /api/v1/jobs                   —               → JobList
//	GET  /api/v1/jobs/{id}              —               → JobStatus
//	GET  /api/v1/jobs/{id}?wait=<d>     —               → JobStatus, held until the job ends (see below)
//	GET  /api/v1/jobs/{id}/result       —               → merged SweepResult bytes (409 until done)
//	POST /api/v1/lease                  LeaseRequest    → LeaseGrant, or 204 when no work
//	POST /api/v1/leases/{id}/heartbeat  —               → 204
//	POST /api/v1/leases/{id}/complete   CompleteRequest → 204
//	POST /api/v1/leases/{id}/fail       FailRequest     → 204
//	GET  /api/v1/healthz                —               → 200 "ok"
//
// A status request with wait=<d> (a Go duration, such as 2.5s) is a
// long poll: the daemon holds it until the job is merged or failed,
// d elapses (at most maxStatusHold), the request is cancelled, or the
// Server closes, then replies with the job's status at that moment. A
// malformed or negative d gets 400; an unknown job gets 404 at once.
// A held request is exempt from MaxInflight shedding, as healthz is:
// it does no work until its job ends.

// maxStatusHold caps how long a status request's wait may hold it.
const maxStatusHold = 30 * time.Second

// Shard states, as reported in ShardStatus.State.
const (
	ShardPending = "pending" // queued, waiting for a worker
	ShardLeased  = "leased"  // held by a worker under a live lease
	ShardDone    = "done"    // valid artifact in the spool
)

// Job states, as reported in JobStatus.State.
const (
	JobQueued  = "queued"  // no shard has been dispatched yet
	JobRunning = "running" // at least one shard leased or done
	JobDone    = "done"    // all shards done, merged result available
	JobFailed  = "failed"  // a shard exhausted its attempts
)

// SubmitRequest asks the daemon to plan and queue one sweep.
type SubmitRequest struct {
	// Spec is the sweep, in the cmd/crnsweep spec-file format.
	Spec *sweepfile.Spec `json:"spec"`
	// Shards is the plan width (default 1).
	Shards int `json:"shards,omitempty"`
}

// SubmitResponse returns the queued job's id.
type SubmitResponse struct {
	ID string `json:"id"`
}

// ShardStatus is one shard's live state inside a JobStatus.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
}

// JobStatus is the live view GET /jobs/{id} serves.
type JobStatus struct {
	ID       string        `json:"id"`
	State    string        `json:"state"`
	Created  time.Time     `json:"created"`
	PlanHash string        `json:"planHash"`
	Total    int           `json:"totalShards"`
	Done     int           `json:"doneShards"`
	Runs     int           `json:"totalRuns"`
	Shards   []ShardStatus `json:"shards"`
	Error    string        `json:"error,omitempty"`
}

// JobList is the GET /jobs reply, in submission order.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// LeaseRequest identifies the worker pulling for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant hands a worker one shard of one job, with everything
// needed to execute it: the full manifest (spec + plan + hash). The
// lease must be heartbeaten before TTL elapses or the shard is
// re-dispatched to another worker.
type LeaseGrant struct {
	Lease     string              `json:"lease"`
	Job       string              `json:"job"`
	Shard     int                 `json:"shard"`
	TTLMillis int64               `json:"ttlMillis"`
	Manifest  *sweepfile.Manifest `json:"manifest"`
}

// TTL is the grant's lease duration.
func (g *LeaseGrant) TTL() time.Duration { return time.Duration(g.TTLMillis) * time.Millisecond }

// CompleteRequest uploads the executed shard's artifact — the exact
// document `crnsweep run` would have written to disk.
type CompleteRequest struct {
	Artifact *sweepfile.Artifact `json:"artifact"`
}

// FailRequest releases a lease the worker cannot finish; the shard is
// re-queued (or the job failed, once attempts are exhausted).
type FailRequest struct {
	Reason string `json:"reason"`
}

// errorReply is the JSON error envelope.
type errorReply struct {
	Error string `json:"error"`
}
