package sweepd

import (
	"fmt"
	"sync"
	"time"

	"crn/internal/sweepfile"
)

// queue is the daemon's in-memory job/lease state machine. It owns no
// I/O: the server validates artifacts and writes spool files, the
// queue only decides who works on what. All methods are safe for
// concurrent use.
//
// Shard lifecycle: pending → leased → done, with leased → pending on
// lease expiry or explicit failure (attempts++ each time a lease is
// issued). A shard that burns through maxAttempts leases fails its
// whole job — by then the spec itself is the likely culprit, not the
// workers.
type queue struct {
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string          // submission order, for listing and FIFO dispatch
	leases map[string]*lease // live leases by id
	// doneLeases remembers completed leases until their job merges, so
	// a worker whose Complete ack was lost in transit can replay the
	// upload and get a no-op success instead of a 409. Expired leases
	// are NOT here: expiry wins over late completion, always.
	doneLeases  map[string]*lease
	ttl         time.Duration
	maxAttempts int
	seq         int              // lease id sequence
	now         func() time.Time // injectable clock
}

type job struct {
	id       string
	manifest *sweepfile.Manifest
	dir      string // spool directory holding this job's files
	created  time.Time
	shards   []shardState
	merged   bool // merged.json written, result servable
	// mergedSum is the merged result's checksum, kept in memory so
	// serving the result can detect a read that went bad on disk.
	mergedSum string
	failerr   string // non-empty: job failed
	// ended is closed, exactly once, when the job is merged or failed;
	// held status requests wait on it. Set at creation, never replaced.
	ended chan struct{}
}

type shardState struct {
	state    string // ShardPending | ShardLeased | ShardDone
	leaseID  string
	worker   string
	deadline time.Time
	attempts int
}

// lease is one live grant; the authoritative copy of its state lives
// on the shard, this is the index entry.
type lease struct {
	id    string
	job   *job
	shard int
}

func newQueue(ttl time.Duration, maxAttempts int) *queue {
	return &queue{
		jobs:        make(map[string]*job),
		leases:      make(map[string]*lease),
		doneLeases:  make(map[string]*lease),
		ttl:         ttl,
		maxAttempts: maxAttempts,
		now:         time.Now,
	}
}

// add registers a job. doneShards[k] pre-marks shards recovered from
// the spool with valid artifacts (nil means none); merged marks a job
// whose merged result already exists, with mergedSum its checksum.
func (q *queue) add(id, dir string, m *sweepfile.Manifest, created time.Time, doneShards []bool, merged bool, mergedSum string) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := &job{
		id:        id,
		manifest:  m,
		dir:       dir,
		created:   created,
		shards:    make([]shardState, len(m.Plan.Shards)),
		merged:    merged,
		mergedSum: mergedSum,
		ended:     make(chan struct{}),
	}
	if merged {
		close(j.ended)
	}
	for k := range j.shards {
		j.shards[k].state = ShardPending
		if doneShards != nil && doneShards[k] {
			j.shards[k].state = ShardDone
		}
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	return j
}

// acquire leases the next pending shard (FIFO over jobs, index order
// within a job) to worker. Returns nil when no work is available.
func (q *queue) acquire(worker string) *LeaseGrant {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	for _, id := range q.order {
		j := q.jobs[id]
		if j.failerr != "" || j.allDoneLocked() {
			continue
		}
		for k := range j.shards {
			s := &j.shards[k]
			if s.state != ShardPending {
				continue
			}
			q.seq++
			leaseID := fmt.Sprintf("l%d-%s-%d", q.seq, j.id, k)
			s.state = ShardLeased
			s.leaseID = leaseID
			s.worker = worker
			s.deadline = q.now().Add(q.ttl)
			s.attempts++
			q.leases[leaseID] = &lease{id: leaseID, job: j, shard: k}
			return &LeaseGrant{
				Lease:     leaseID,
				Job:       j.id,
				Shard:     k,
				TTLMillis: q.ttl.Milliseconds(),
				Manifest:  j.manifest,
			}
		}
	}
	return nil
}

func (j *job) allDoneLocked() bool {
	for k := range j.shards {
		if j.shards[k].state != ShardDone {
			return false
		}
	}
	return true
}

// heartbeat extends a live lease's deadline by the full TTL.
func (q *queue) heartbeat(leaseID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	l, ok := q.leases[leaseID]
	if !ok {
		return fmt.Errorf("lease %s unknown or expired", leaseID)
	}
	l.job.shards[l.shard].deadline = q.now().Add(q.ttl)
	return nil
}

// lookup resolves a lease to its job and shard index without changing
// state — the server uses it to validate an uploaded artifact against
// the right manifest before committing anything. completed reports a
// lease that already finished: a replayed Complete under it is a
// no-op success, not a conflict.
func (q *queue) lookup(leaseID string) (j *job, shard int, completed bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	if l, ok := q.doneLeases[leaseID]; ok {
		return l.job, l.shard, true, nil
	}
	l, ok := q.leases[leaseID]
	if !ok {
		return nil, 0, false, fmt.Errorf("lease %s unknown or expired", leaseID)
	}
	return l.job, l.shard, false, nil
}

// complete marks a leased shard done (its artifact is already
// validated and spooled) and reports whether that finished the job's
// last shard — the caller then merges exactly once.
func (q *queue) complete(leaseID string) (j *job, lastShard bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	if l, ok := q.doneLeases[leaseID]; ok {
		// Duplicate upload under a lease that already completed (the
		// worker's first ack was lost in transit): idempotent no-op.
		return l.job, false, nil
	}
	l, ok := q.leases[leaseID]
	if !ok {
		// The lease expired while the worker was finishing. The shard
		// has been re-queued; the artifact the worker spooled is still
		// valid (bytes are deterministic), but letting expiry win keeps
		// the state machine single-writer.
		return nil, false, fmt.Errorf("lease %s unknown or expired", leaseID)
	}
	delete(q.leases, leaseID)
	q.doneLeases[leaseID] = l
	s := &l.job.shards[l.shard]
	s.state = ShardDone
	s.leaseID, s.worker = "", ""
	return l.job, l.job.allDoneLocked() && !l.job.merged, nil
}

// fail releases a lease the worker could not finish, re-queueing the
// shard (or failing the job once attempts are exhausted).
func (q *queue) fail(leaseID, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[leaseID]
	if !ok {
		return fmt.Errorf("lease %s unknown or expired", leaseID)
	}
	delete(q.leases, leaseID)
	q.requeueLocked(l.job, l.shard, reason)
	return nil
}

// markMerged records that a job's merged result is on disk (with its
// checksum, for serve-time verification) and drops its completed-lease
// bookkeeping (nothing left to replay against).
func (q *queue) markMerged(j *job, sum string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.merged = true
	j.mergedSum = sum
	for id, l := range q.doneLeases {
		if l.job == j {
			delete(q.doneLeases, id)
		}
	}
	j.endLocked()
}

// mergedSumOf reads a job's merged-result checksum under the lock.
func (q *queue) mergedSumOf(j *job) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.mergedSum
}

// invalidateShard re-queues a done shard whose spooled artifact
// turned out to be invalid at merge time — a torn or corrupted write
// the ack-time validation could not have caught (the bytes went bad
// on disk, or a faulty filesystem lied). The shard burns an attempt
// like any other failure, so persistent corruption still fails the
// job through maxAttempts instead of looping forever.
func (q *queue) invalidateShard(j *job, shard int, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := &j.shards[shard]
	if s.state != ShardDone || j.merged || j.failerr != "" {
		return
	}
	for id, l := range q.doneLeases {
		if l.job == j && l.shard == shard {
			delete(q.doneLeases, id)
		}
	}
	q.requeueLocked(j, shard, reason)
}

// unmergedDone snapshots jobs whose shards are all done but whose
// merge has not landed — the janitor retries these, so a transient
// spool write error during merge heals instead of wedging the job.
func (q *queue) unmergedDone() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*job
	for _, id := range q.order {
		j := q.jobs[id]
		if j.failerr == "" && !j.merged && j.allDoneLocked() && len(j.shards) > 0 {
			out = append(out, j)
		}
	}
	return out
}

// markFailed fails a whole job (e.g. its merge step errored).
func (q *queue) markFailed(j *job, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.failErrLocked(reason)
}

// failErrLocked fails the job with its first reason. Every failure —
// lease expiry, fail, invalidateShard, markFailed — goes through it.
func (j *job) failErrLocked(reason string) {
	if j.failerr == "" {
		j.failerr = reason
		j.endLocked()
	}
}

// endLocked wakes the job's held status requests: it closes ended the
// first time the job is merged or failed and does nothing after.
func (j *job) endLocked() {
	select {
	case <-j.ended:
	default:
		close(j.ended)
	}
}

// expire re-queues every leased shard whose deadline has passed.
// Callers poll it via acquire/status; the server also runs it on a
// timer so stragglers are reclaimed even on an idle API.
func (q *queue) expire() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
}

func (q *queue) expireLocked() {
	now := q.now()
	for id, l := range q.leases {
		s := &l.job.shards[l.shard]
		if now.Before(s.deadline) {
			continue
		}
		delete(q.leases, id)
		q.requeueLocked(l.job, l.shard, fmt.Sprintf("lease %s expired (worker %s)", id, s.worker))
	}
}

func (q *queue) requeueLocked(j *job, shard int, reason string) {
	s := &j.shards[shard]
	s.state = ShardPending
	s.leaseID, s.worker = "", ""
	if s.attempts >= q.maxAttempts {
		j.failErrLocked(fmt.Sprintf("shard %d failed %d times, last: %s", shard, s.attempts, reason))
	}
}

// get returns a job by id.
func (q *queue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// status snapshots one job's live state.
func (q *queue) status(id string) (*JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return q.statusLocked(j), true
}

// list snapshots every job in submission order.
func (q *queue) list() *JobList {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	out := &JobList{Jobs: make([]JobStatus, 0, len(q.order))}
	for _, id := range q.order {
		out.Jobs = append(out.Jobs, *q.statusLocked(q.jobs[id]))
	}
	return out
}

func (q *queue) statusLocked(j *job) *JobStatus {
	st := &JobStatus{
		ID:       j.id,
		Created:  j.created,
		PlanHash: j.manifest.PlanHash,
		Total:    len(j.shards),
		Runs:     len(j.manifest.Plan.Variants) * j.manifest.Plan.Seeds,
		Shards:   make([]ShardStatus, len(j.shards)),
		Error:    j.failerr,
	}
	active := false
	for k := range j.shards {
		s := &j.shards[k]
		st.Shards[k] = ShardStatus{Shard: k, State: s.state, Worker: s.worker, Attempts: s.attempts}
		switch s.state {
		case ShardDone:
			st.Done++
		case ShardLeased:
			active = true
		}
	}
	switch {
	case j.failerr != "":
		st.State = JobFailed
	case j.merged:
		st.State = JobDone
	case active || st.Done > 0:
		st.State = JobRunning
	default:
		st.State = JobQueued
	}
	return st
}
