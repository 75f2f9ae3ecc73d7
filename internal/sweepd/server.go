package sweepd

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"crn/internal/sweepfile"
)

// Config parameterizes a Server.
type Config struct {
	// Spool is the job-state directory (required). A daemon restarted
	// on the same spool resumes its in-flight jobs.
	Spool string
	// LeaseTTL is how long a worker may hold a shard without
	// heartbeating before it is re-dispatched (default 60s).
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases one shard may burn before its
	// job is failed (default 5).
	MaxAttempts int
	// MaxInflight bounds concurrently-served API requests (overload
	// shedding): excess requests are refused with 429 + Retry-After
	// instead of queueing without bound. 0 disables shedding. The
	// health endpoint is exempt — a shedding daemon is alive — and so
	// is a held status wait, which does no work until its job ends.
	MaxInflight int
	// FS is the spool filesystem (default sweepfile.OS). internal/chaos
	// injects faults here.
	FS sweepfile.FS
	// OnShardDone, when set, observes every acked shard completion
	// (after the artifact is durably spooled and the queue marked it
	// done). The chaos harness uses it to assert no acked artifact is
	// ever lost.
	OnShardDone func(jobID string, shard int)
	// Log receives operational messages (default: log.Default()).
	Log *log.Logger
}

// Server is the sweep orchestrator: it owns the queue and the spool
// and exposes them as the HTTP API documented in api.go. Create one
// with New, mount Handler on an http.Server, and Close it when done.
type Server struct {
	cfg      Config
	queue    *queue
	store    *store
	log      *log.Logger
	inflight chan struct{} // shedding semaphore (nil: unbounded)
	stop     chan struct{}
	stopOnce sync.Once
}

// New opens (or creates) the spool, recovers any jobs already in it —
// re-queueing exactly the shards without valid artifacts, and merging
// jobs that crashed between the last upload and the merge — and
// returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 60 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	st, err := newStore(cfg.Spool, cfg.FS)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		queue: newQueue(cfg.LeaseTTL, cfg.MaxAttempts),
		store: st,
		log:   cfg.Log,
		stop:  make(chan struct{}),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if err := s.recoverJobs(); err != nil {
		return nil, err
	}
	// Reclaim straggler leases even when no worker is polling.
	go s.janitor()
	return s, nil
}

func (s *Server) recoverJobs() error {
	recovered, skipped, err := s.store.recover()
	if err != nil {
		return err
	}
	for _, serr := range skipped {
		s.log.Printf("sweepd: spool: skipping unrecoverable %v", serr)
	}
	// ReadDir order is lexical; dispatch in original submission order.
	sort.Slice(recovered, func(i, k int) bool {
		if !recovered[i].created.Equal(recovered[k].created) {
			return recovered[i].created.Before(recovered[k].created)
		}
		return recovered[i].id < recovered[k].id
	})
	for _, rj := range recovered {
		j := s.queue.add(rj.id, rj.dir, rj.manifest, rj.created, rj.doneShards, rj.merged, rj.mergedSum)
		done := 0
		for _, ok := range rj.doneShards {
			if ok {
				done++
			}
		}
		s.log.Printf("sweepd: recovered job %s: %d/%d shards done, merged=%v",
			rj.id, done, len(rj.doneShards), rj.merged)
		// Crashed after the last artifact but before (or during) the
		// merge: finish it now. Deterministic bytes make this idempotent.
		if done == len(rj.doneShards) && !rj.merged {
			s.finishJob(j)
		}
	}
	return nil
}

// finishJob merges an all-shards-done job, triaging failure by the
// store's error taxonomy: an invalid shard artifact re-queues that
// shard (self-healing — chaos or a bad disk corrupted it after the
// ack, so it is simply re-run), a semantic merge rejection fails the
// job, and anything else (a transient spool write error) leaves the
// job all-done-unmerged for the janitor to retry.
func (s *Server) finishJob(j *job) {
	sum, err := s.store.mergeJob(j)
	if err == nil {
		s.queue.markMerged(j, sum)
		s.log.Printf("sweepd: job %s merged: result available", j.id)
		return
	}
	var inv *shardInvalidError
	if errors.As(err, &inv) {
		s.queue.invalidateShard(j, inv.shard, inv.Error())
		s.log.Printf("sweepd: job %s: %v — shard %d re-queued", j.id, err, inv.shard)
		return
	}
	var fatal *fatalMergeError
	if errors.As(err, &fatal) {
		s.queue.markFailed(j, err.Error())
		s.log.Printf("sweepd: job %s: merge failed: %v", j.id, err)
		return
	}
	s.log.Printf("sweepd: job %s: merge deferred (will retry): %v", j.id, err)
}

// janitor expires stale leases and retries deferred merges in the
// background until Close.
func (s *Server) janitor() {
	tick := time.NewTicker(s.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.queue.expire()
			for _, j := range s.queue.unmergedDone() {
				s.finishJob(j)
			}
		}
	}
}

// Close stops the background janitor and ends every held status
// request (idempotent). Requests in flight still complete: an upload
// that finishes a job still merges it. In-memory queue state is
// discarded; the spool carries everything a restart needs.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	return nil
}

// Handler returns the daemon's HTTP API, wrapped in the overload
// shedder when MaxInflight is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /api/v1/lease", s.handleAcquire)
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/leases/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /api/v1/leases/{id}/fail", s.handleFail)
	mux.HandleFunc("GET /api/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s.shed(mux)
}

// shed refuses requests beyond MaxInflight with 429 + Retry-After —
// clients (and the workers' backoff loops) honor the hint, so a
// flooded daemon degrades into pacing instead of collapse. 429 always
// means "not processed": every verb, Submit included, may safely
// retry it.
func (s *Server) shed(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptFromShedding(r) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			s.error(w, http.StatusTooManyRequests, fmt.Errorf("daemon overloaded (%d requests in flight), retry later", cap(s.inflight)))
		}
	})
}

// exemptFromShedding reports the requests that take no MaxInflight
// slot: the health check (a shedding daemon is alive) and a held job
// status wait, which does no work until its job ends.
func exemptFromShedding(r *http.Request) bool {
	p := r.URL.Path
	if p == "/api/v1/healthz" {
		return true
	}
	return r.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/jobs/") &&
		!strings.HasSuffix(p, "/result") && r.URL.Query().Has("wait")
}

// maxBody bounds request bodies; shard artifacts dominate and are
// JSON run lists, far below this.
const maxBody = 128 << 20

// maxSubmitBody bounds a submit's body: 4096 variants (the most
// crn.PlanShards accepts) at 256 bytes each. A spec with far more
// variants is refused before it is decoded, not after.
const maxSubmitBody = 1 << 20

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		s.error(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return false
	}
	if err := sweepfile.UnmarshalStrict(doc, v); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Printf("sweepd: writing response: %v", err)
	}
}

func (s *Server) error(w http.ResponseWriter, status int, err error) {
	s.reply(w, status, &errorReply{Error: err.Error()})
}

// newJobID returns a short random id; the spool directory name and
// the API handle are the same string.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.readJSON(w, r, maxSubmitBody, &req) {
		return
	}
	if req.Spec == nil {
		s.error(w, http.StatusBadRequest, fmt.Errorf("submit: missing spec"))
		return
	}
	shards := req.Shards
	if shards == 0 {
		shards = 1
	}
	m, err := sweepfile.NewManifest(req.Spec, shards)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	id, err := newJobID()
	if err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	created := time.Now().UTC()
	dir, err := s.store.createJob(id, m, created)
	if err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	s.queue.add(id, dir, m, created, nil, false, "")
	s.log.Printf("sweepd: job %s submitted: %d runs in %d shards (plan %s)",
		id, len(m.Plan.Variants)*m.Plan.Seeds, len(m.Plan.Shards), m.PlanHash)
	s.reply(w, http.StatusOK, &SubmitResponse{ID: id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.queue.list())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var hold time.Duration
	if q := r.URL.Query(); q.Has("wait") {
		d, err := time.ParseDuration(q.Get("wait"))
		if err != nil || d < 0 {
			s.error(w, http.StatusBadRequest, fmt.Errorf("status: wait %q is not a duration ≥ 0", q.Get("wait")))
			return
		}
		hold = min(d, maxStatusHold)
	}
	j, ok := s.queue.get(id)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("job %s not found", id))
		return
	}
	if hold > 0 {
		t := time.NewTimer(hold)
		select {
		case <-j.ended:
		case <-t.C:
		case <-r.Context().Done():
		case <-s.stop:
		}
		t.Stop()
	}
	st, _ := s.queue.status(id)
	s.reply(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.queue.status(id)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Errorf("job %s not found", id))
		return
	}
	switch st.State {
	case JobFailed:
		s.error(w, http.StatusGone, fmt.Errorf("job %s failed: %s", id, st.Error))
		return
	case JobDone:
	default:
		s.error(w, http.StatusConflict, fmt.Errorf("job %s is %s (%d/%d shards done)", id, st.State, st.Done, st.Total))
		return
	}
	j, _ := s.queue.get(id)
	doc, err := s.store.resultBytes(j, s.queue.mergedSumOf(j))
	if err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	// Serve the merged file verbatim: the bytes ARE the contract.
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !s.readJSON(w, r, maxBody, &req) {
		return
	}
	if req.Worker == "" {
		s.error(w, http.StatusBadRequest, fmt.Errorf("lease: missing worker name"))
		return
	}
	grant := s.queue.acquire(req.Worker)
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.log.Printf("sweepd: lease %s: shard %d of job %s → worker %s", grant.Lease, grant.Shard, grant.Job, req.Worker)
	s.reply(w, http.StatusOK, grant)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := s.queue.heartbeat(r.PathValue("id")); err != nil {
		s.error(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("id")
	var req CompleteRequest
	if !s.readJSON(w, r, maxBody, &req) {
		return
	}
	if req.Artifact == nil {
		s.error(w, http.StatusBadRequest, fmt.Errorf("complete: missing artifact"))
		return
	}
	j, shard, completed, err := s.queue.lookup(leaseID)
	if err != nil {
		s.error(w, http.StatusConflict, err)
		return
	}
	if completed {
		// Replayed upload for a lease that already completed — the
		// worker's first ack was lost. The artifact is already spooled
		// and validated; acknowledge again and change nothing.
		s.log.Printf("sweepd: lease %s: duplicate complete for shard %d of job %s (no-op)", leaseID, shard, j.id)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The same validation gauntlet the offline pipeline applies:
	// plan hash, shard index, run count here; per-run identity and
	// derived seeds again at merge time.
	if err := sweepfile.CheckArtifact(j.manifest, req.Artifact, shard); err != nil {
		s.error(w, http.StatusUnprocessableEntity, fmt.Errorf("shard %d artifact rejected: %w", shard, err))
		return
	}
	if err := s.store.writeArtifact(j, shard, req.Artifact); err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	j2, last, err := s.queue.complete(leaseID)
	if err != nil {
		// Lease expired between lookup and complete; the shard is
		// re-queued and the spooled artifact (deterministic bytes)
		// will satisfy its next lease.
		s.error(w, http.StatusConflict, err)
		return
	}
	s.log.Printf("sweepd: lease %s: shard %d of job %s complete", leaseID, shard, j.id)
	if s.cfg.OnShardDone != nil {
		s.cfg.OnShardDone(j2.id, shard)
	}
	if last {
		s.finishJob(j2)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("id")
	var req FailRequest
	if !s.readJSON(w, r, maxBody, &req) {
		return
	}
	if err := s.queue.fail(leaseID, req.Reason); err != nil {
		s.error(w, http.StatusConflict, err)
		return
	}
	s.log.Printf("sweepd: lease %s failed by worker: %s", leaseID, req.Reason)
	w.WriteHeader(http.StatusNoContent)
}
