package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crn"
	"crn/internal/sweepfile"
)

// fastClient returns a client with tight timeouts and retries for
// hardening tests, plus an instant sleeper so retry tests don't wait.
func fastClient(base string, opts ...ClientOption) *Client {
	c := NewClient(base, opts...)
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return c
}

// TestClientRequestTimeoutDistinct: a stalled daemon must surface as
// context.DeadlineExceeded — distinguishable from transport errors —
// without the caller's own context being touched.
func TestClientRequestTimeoutDistinct(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	c := fastClient(ts.URL, WithRequestTimeout(30*time.Millisecond), WithRetries(0, time.Millisecond))
	_, err := c.Status(context.Background(), "j1")
	if err == nil {
		t.Fatal("stalled daemon produced no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded in chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "request deadline") {
		t.Fatalf("timeout error should name the request deadline: %v", err)
	}

	// A plain refused connection must NOT read as a deadline.
	c2 := fastClient("http://127.0.0.1:1", WithRequestTimeout(time.Second), WithRetries(0, time.Millisecond))
	_, err = c2.Status(context.Background(), "j1")
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("refused connection misreported as deadline: %v", err)
	}
}

// TestClientRetriesIdempotent: 5xx on an idempotent verb retries to
// success; the same storm on Submit does not (a replayed submit could
// double-queue), while 429 retries every verb.
func TestClientRetriesIdempotent(t *testing.T) {
	var gets, submits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			if gets.Add(1) <= 2 {
				http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
				return
			}
			fmt.Fprint(w, `{"id":"j1","state":"queued","planHash":"x","created":"2026-01-01T00:00:00Z","shards":[],"done":0,"total":1,"runs":1,"error":""}`)
			return
		}
		submits.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := fastClient(ts.URL, WithRetries(4, time.Millisecond))
	if _, err := c.Status(context.Background(), "j1"); err != nil {
		t.Fatalf("idempotent GET did not retry through the 5xx storm: %v", err)
	}
	if n := gets.Load(); n != 3 {
		t.Fatalf("GET attempted %d times, want 3", n)
	}

	if _, err := c.Submit(context.Background(), testSpec(), 1); err == nil {
		t.Fatal("Submit retried a 500 — a replayed submit can double-queue")
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("Submit attempted %d times, want 1", n)
	}
}

// TestClientRetries429Always: 429 means "not processed", so even
// Submit retries it, honoring Retry-After.
func TestClientRetries429Always(t *testing.T) {
	var submits atomic.Int64
	var sawRetryAfter atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"id":"j9"}`)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, WithRetries(2, time.Millisecond))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if d == time.Second {
			sawRetryAfter.Store(true)
		}
		return nil
	}
	id, err := c.Submit(context.Background(), testSpec(), 1)
	if err != nil || id != "j9" {
		t.Fatalf("Submit through 429: id=%q err=%v", id, err)
	}
	if n := submits.Load(); n != 2 {
		t.Fatalf("Submit attempted %d times, want 2", n)
	}
	if !sawRetryAfter.Load() {
		t.Fatal("client did not honor Retry-After")
	}
}

// TestDuplicateCompleteIsNoOp: re-uploading the artifact for a lease
// that already completed must ack again (204), not 409 — that is what
// makes a lost Complete ack safe to retry.
func TestDuplicateCompleteIsNoOp(t *testing.T) {
	m, err := sweepfile.NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	srv, ts, c := startServer(t, spool, time.Minute)
	defer ts.Close()
	defer srv.Close()

	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire: %v %v", grant, err)
	}
	spec, err := sweepfile.BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(ctx, spec, m.Plan, grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(ctx, grant.Lease, artifact); err != nil {
		t.Fatalf("first complete: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Complete(ctx, grant.Lease, artifact); err != nil {
			t.Fatalf("duplicate complete #%d: %v", i+1, err)
		}
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("duplicates changed state: %d shards done, want 1", st.Done)
	}
	if st.Shards[grant.Shard].Attempts != 1 {
		t.Fatalf("duplicates burned attempts: %d, want 1", st.Shards[grant.Shard].Attempts)
	}
}

// TestOverloadShedding: beyond MaxInflight the daemon sheds with 429
// + Retry-After instead of queueing; healthz stays exempt, and so does
// a held status wait: with one slot and a wait held, a worker's
// acquire still gets its grant. The slot is held by a real request, a
// submit whose body stalls, through the daemon's own handler.
func TestOverloadShedding(t *testing.T) {
	srv, err := New(Config{Spool: t.TempDir(), MaxInflight: 1, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() // first: ends a held wait, so ts.Close does not wait it out
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if code := get("/api/v1/jobs").StatusCode; code != http.StatusOK {
		t.Fatalf("idle daemon replied %d, want 200", code)
	}

	body, err := json.Marshal(&SubmitRequest{Spec: testSpec(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pw.Close() // a failed check must not leave the submit stalled
	submitted := make(chan SubmitResponse, 1)
	go func() {
		var sr SubmitResponse
		if resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", pr); err == nil {
			json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
		}
		submitted <- sr
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	// The stalled submit takes the slot once the daemon starts reading
	// it; from then on every request but the exempt ones is shed.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp := get("/api/v1/jobs")
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 reply missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon with its one slot held replied %d, want 429", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := get("/api/v1/healthz").StatusCode; code != http.StatusOK {
		t.Fatalf("healthz shed with %d — a shedding daemon must still report alive", code)
	}
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	id := (<-submitted).ID
	if id == "" {
		t.Fatal("the stalled submit did not queue its job")
	}

	c := NewClient(ts.URL, WithRetries(0, time.Millisecond)) // a 429 surfaces at once
	ctx := context.Background()
	held := getStatus(ts.URL, id, "?wait=20s")
	stillHeld(t, held, "the job ended")
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire beside a held wait at MaxInflight 1: grant=%v err=%v, want a grant", grant, err)
	}
	srv.Close() // ends the held wait
	if r := <-held; r.err != nil || r.code != http.StatusOK || r.st.State != JobRunning {
		t.Fatalf("held wait ended by Close: http %d, state %q, err %v; want 200 running", r.code, r.st.State, r.err)
	}
}

// TestBackoffJitteredExponential: delays grow toward the cap, stay in
// the jitter envelope [cur/2, 3·cur/2), and reset() snaps back.
func TestBackoffJitteredExponential(t *testing.T) {
	b := newBackoff(100*time.Millisecond, time.Second, 7)
	cur := 100 * time.Millisecond
	for i := 0; i < 10; i++ {
		d := b.next()
		if d < cur/2 || d >= cur+cur/2 {
			t.Fatalf("step %d: delay %v outside [%v, %v)", i, d, cur/2, cur+cur/2)
		}
		if cur *= 2; cur > time.Second {
			cur = time.Second
		}
	}
	b.reset()
	if d := b.next(); d >= 150*time.Millisecond {
		t.Fatalf("after reset, delay %v should be back at base scale", d)
	}

	// Two workers with different names must not poll in lockstep.
	b1 := newBackoff(100*time.Millisecond, time.Second, 1)
	b2 := newBackoff(100*time.Millisecond, time.Second, 2)
	same := true
	for i := 0; i < 8; i++ {
		if b1.next() != b2.next() {
			same = false
		}
	}
	if same {
		t.Fatal("differently-seeded backoffs produced identical jitter")
	}
}

// tornFS tears the Nth WriteFileAtomic (truncated bytes land, success
// reported) — the lying-disk case only read-back verification catches.
type tornFS struct {
	sweepfile.FS
	writes atomic.Int64
	tearAt int64
}

func (f *tornFS) WriteFileAtomic(path string, data []byte) error {
	if f.writes.Add(1) == f.tearAt {
		return f.FS.WriteFileAtomic(path, data[:len(data)/2])
	}
	return f.FS.WriteFileAtomic(path, data)
}

// TestTornWriteNeverAcked: a torn artifact write must fail the
// Complete (read-back mismatch) so the worker's retry re-uploads; the
// shard is never acked on top of bad bytes.
func TestTornWriteNeverAcked(t *testing.T) {
	m, err := sweepfile.NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// job.json and manifest.json are writes 1 and 2; the first
	// artifact is write 3.
	ffs := &tornFS{FS: sweepfile.OS, tearAt: 3}
	srv, err := New(Config{Spool: t.TempDir(), LeaseTTL: time.Minute, FS: ffs, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL, WithRetries(2, time.Millisecond))

	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire: %v %v", grant, err)
	}
	spec, err := sweepfile.BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(ctx, spec, m.Plan, grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	// Complete is idempotent: the client retries through the injected
	// torn write (500 read-back mismatch) and the second attempt acks.
	if err := c.Complete(ctx, grant.Lease, artifact); err != nil {
		t.Fatalf("complete did not survive one torn write: %v", err)
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Fatalf("%d shards done, want 1", st.Done)
	}
	// The acked artifact on disk must validate.
	if _, err := sweepfile.LoadArtifact(m, srv.store.jobDir(id), grant.Shard); err != nil {
		t.Fatalf("acked artifact does not validate on disk: %v", err)
	}
}

// TestMergeSelfHealsCorruptShard: corrupting a spooled artifact after
// its ack must re-queue that shard at merge time (not fail the job),
// and the re-run must still produce the byte-identical result.
func TestMergeSelfHealsCorruptShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spool := t.TempDir()
	srv, ts, c := startServer(t, spool, time.Minute)
	defer ts.Close()
	defer srv.Close()

	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := sweepfile.LoadManifest(filepath.Join(srv.store.jobDir(id), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweepfile.BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Complete shards 0 and 1 honestly.
	for i := 0; i < 2; i++ {
		grant, err := c.Acquire(ctx, "w1")
		if err != nil || grant == nil {
			t.Fatalf("acquire %d: %v %v", i, grant, err)
		}
		res, err := crn.RunShard(ctx, spec, m.Plan, grant.Shard)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sweepfile.NewArtifact(m.PlanHash, res)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(ctx, grant.Lease, a); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt shard 0's spooled artifact behind the daemon's back:
	// flip one bit inside the payload (still well-formed JSON bytes on
	// disk length-wise; the content sum is what catches it).
	path := filepath.Join(srv.store.jobDir(id), m.Artifacts[0])
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc[len(doc)/2] ^= 0x01
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	// Complete the last shard: the merge sees the corrupt artifact,
	// re-queues shard 0 instead of failing the job.
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire last: %v %v", grant, err)
	}
	res, err := crn.RunShard(ctx, spec, m.Plan, grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(ctx, grant.Lease, a); err != nil {
		t.Fatal(err)
	}

	st, err := c.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == JobFailed {
		t.Fatalf("corrupt shard failed the whole job: %s", st.Error)
	}
	if st.Shards[0].State != ShardPending {
		t.Fatalf("corrupt shard 0 is %q, want re-queued pending", st.Shards[0].State)
	}

	// Re-run the invalidated shard; the job must now merge and match
	// the in-process bytes exactly.
	grant, err = c.Acquire(ctx, "w2")
	if err != nil || grant == nil || grant.Shard != 0 {
		t.Fatalf("re-acquire: %+v %v", grant, err)
	}
	res, err = crn.RunShard(ctx, spec, m.Plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err = sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(ctx, grant.Lease, a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, got, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, testSpec()); string(got) != string(want) {
		t.Error("self-healed result diverged from in-process crn.Sweep")
	}
}

// corruptReadFS flips one byte on reads of files matching substr,
// after skipping the first skip matching reads, for flips reads.
type corruptReadFS struct {
	sweepfile.FS
	substr string
	skip   atomic.Int64
	flips  atomic.Int64
}

func (f *corruptReadFS) ReadFile(path string) ([]byte, error) {
	doc, err := f.FS.ReadFile(path)
	if err != nil || !strings.Contains(path, f.substr) {
		return doc, err
	}
	if f.skip.Add(-1) >= 0 {
		return doc, nil
	}
	if f.flips.Add(-1) >= 0 && len(doc) > 0 {
		bad := append([]byte(nil), doc...)
		bad[len(bad)/2] ^= 0x01
		return bad, nil
	}
	return doc, nil
}

// TestResultServeDetectsCorruptRead: a read of merged.json that goes
// bad while serving /result must surface as a retryable 500 — never
// as corrupted bytes with a 200 — and the idempotent retry succeeds.
func TestResultServeDetectsCorruptRead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// Read #1 of merged.json is the merge's own read-back verification;
	// corrupt read #2, the first result serve.
	cfs := &corruptReadFS{FS: sweepfile.OS, substr: "merged.json"}
	cfs.skip.Store(1)
	cfs.flips.Store(1)
	srv, err := New(Config{Spool: t.TempDir(), LeaseTTL: time.Minute, FS: cfs, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)

	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wk := &Worker{Client: NewClient(ts.URL), Name: "w1", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 1, Log: quietLog()}
	if err := <-runWorker(ctx, wk); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, id, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, doc, err := c.Result(ctx, id)
	if err != nil {
		t.Fatalf("result after retryable corrupt read: %v", err)
	}
	if cfs.flips.Load() >= 0 {
		t.Fatal("the corrupt read was never consumed — the test exercised nothing")
	}
	if !bytes.Equal(doc, directBytes(t, testSpec())) {
		t.Error("served result diverged from the in-process sweep")
	}
}

// failingReadFS fails reads of files matching substr, count times.
type failingReadFS struct {
	sweepfile.FS
	substr string
	left   atomic.Int64
}

func (f *failingReadFS) ReadFile(path string) ([]byte, error) {
	if strings.Contains(path, f.substr) && f.left.Add(-1) >= 0 {
		return nil, fmt.Errorf("injected read error: %s", path)
	}
	return f.FS.ReadFile(path)
}

// TestRestartSurvivesBadManifestRead: across a restart, the first
// read of a job's manifest.json fails or comes back with a flipped
// bit. The file on disk is intact, so the job must be recovered (not
// skipped), and its result must byte-match the in-process sweep.
func TestRestartSurvivesBadManifestRead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	failing := &failingReadFS{FS: sweepfile.OS, substr: "manifest.json"}
	failing.left.Store(1)
	corrupt := &corruptReadFS{FS: sweepfile.OS, substr: "manifest.json"}
	corrupt.flips.Store(1)
	cases := []struct {
		name     string
		fs       sweepfile.FS
		consumed func() bool
	}{
		{"read error", failing, func() bool { return failing.left.Load() <= 0 }},
		{"corrupt read", corrupt, func() bool { return corrupt.flips.Load() <= 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			spool := t.TempDir()
			srv1, ts1, c1 := startServer(t, spool, time.Minute)
			id, err := c1.Submit(ctx, testSpec(), 2)
			if err != nil {
				t.Fatal(err)
			}
			wk := &Worker{Client: c1, Name: "w1", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 1, Log: quietLog()}
			if err := <-runWorker(ctx, wk); err != nil {
				t.Fatal(err)
			}
			ts1.Close()
			srv1.Close()

			srv2, err := New(Config{Spool: spool, LeaseTTL: time.Minute, FS: tc.fs, Log: quietLog()})
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			c2 := NewClient(ts2.URL)
			if !tc.consumed() {
				t.Fatal("recovery never met the injected fault — the test exercised nothing")
			}
			st, err := c2.Status(ctx, id)
			if err != nil {
				t.Fatalf("job lost across the restart: %v", err)
			}
			if st.Done != 1 {
				t.Fatalf("recovered %d done shards, want 1", st.Done)
			}
			wk2 := &Worker{Client: c2, Name: "w2", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 1, Log: quietLog()}
			if err := <-runWorker(ctx, wk2); err != nil {
				t.Fatal(err)
			}
			if _, err := c2.Wait(ctx, id, 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			_, got, err := c2.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if want := directBytes(t, testSpec()); !bytes.Equal(got, want) {
				t.Error("recovered job's result diverged from in-process crn.Sweep")
			}
		})
	}
}

// TestRestartResumeCorruptionTable: a daemon restarted on a spool
// where one done shard's artifact was damaged — truncated, bit-
// flipped, wrong plan hash, or replaced by a crashed writer's
// zero-length temp file — must re-queue exactly that shard and keep
// the intact ones.
func TestRestartResumeCorruptionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated JSON", func(t *testing.T, path string) {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, doc[:len(doc)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped payload", func(t *testing.T, path string) {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			doc[len(doc)/2] ^= 0x01
			if err := os.WriteFile(path, doc, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong planHash", func(t *testing.T, path string) {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s := strings.Replace(string(doc), `"planHash": "sha256:`, `"planHash": "sha256:dead`, 1)
			if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length temp debris", func(t *testing.T, path string) {
			// The crash-between-temp-write-and-rename shape: the real
			// artifact is gone, a zero-length temp file remains.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+".tmp-777", nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			spool := t.TempDir()
			srv1, ts1, c1 := startServer(t, spool, time.Minute)
			id, err := c1.Submit(ctx, testSpec(), 4)
			if err != nil {
				t.Fatal(err)
			}
			wk := &Worker{Client: c1, Name: "w1", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 2, Log: quietLog()}
			if err := <-runWorker(ctx, wk); err != nil {
				t.Fatal(err)
			}
			st, err := c1.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			var done []int
			for _, sh := range st.Shards {
				if sh.State == ShardDone {
					done = append(done, sh.Shard)
				}
			}
			if len(done) != 2 {
				t.Fatalf("setup: %d shards done, want 2", len(done))
			}
			ts1.Close()
			srv1.Close()

			m, _, err := sweepfile.LoadManifest(filepath.Join(spool, "jobs", id, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			victim := done[0]
			tc.corrupt(t, filepath.Join(spool, "jobs", id, m.Artifacts[victim]))

			srv2, ts2, c2 := startServer(t, spool, time.Minute)
			defer ts2.Close()
			defer srv2.Close()
			st, err = c2.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Done != 1 {
				t.Fatalf("recovered %d done shards, want 1 (the intact one)", st.Done)
			}
			if st.Shards[victim].State != ShardPending {
				t.Fatalf("corrupted shard %d recovered as %q, want pending", victim, st.Shards[victim].State)
			}
			if st.Shards[done[1]].State != ShardDone {
				t.Fatalf("intact shard %d recovered as %q, want done", done[1], st.Shards[done[1]].State)
			}
			// Stale temp debris is swept on recovery.
			entries, err := os.ReadDir(filepath.Join(spool, "jobs", id))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if sweepfile.IsTempFile(e.Name()) {
					t.Errorf("recovery left temp debris %s", e.Name())
				}
			}

			// Finish the job; the healed result must match the
			// in-process bytes exactly.
			wk2 := &Worker{Client: c2, Name: "w2", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 3, Log: quietLog()}
			if err := <-runWorker(ctx, wk2); err != nil {
				t.Fatal(err)
			}
			if _, err := c2.Wait(ctx, id, 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			_, got, err := c2.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if want := directBytes(t, testSpec()); string(got) != string(want) {
				t.Error("healed result diverged from in-process crn.Sweep")
			}
		})
	}
}

// TestJanitorRetriesDeferredMerge: a transient failure while writing
// merged.json must leave the job all-done-unmerged and let the
// janitor's retry finish it — not fail the job.
func TestJanitorRetriesDeferredMerge(t *testing.T) {
	m, err := sweepfile.NewManifest(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the merged.json read-back once: mergeJob's write errors
	// transiently, then succeeds on the janitor's retry.
	ffs := &failingReadFS{FS: sweepfile.OS, substr: "merged.json"}
	ffs.left.Store(1)
	srv, err := New(Config{Spool: t.TempDir(), LeaseTTL: 400 * time.Millisecond, FS: ffs, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Execute the shard before taking the lease: under -race the run
	// can outlast a 400ms TTL, and this test is about the janitor's
	// merge retry, not lease expiry.
	spec, err := sweepfile.BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(ctx, spec, m.Plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sweepfile.NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire: %v %v", grant, err)
	}
	if err := c.Complete(ctx, grant.Lease, a); err != nil {
		t.Fatalf("complete should ack even when the merge defers: %v", err)
	}
	// The janitor (ticking at TTL/4) retries the merge.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	st, err := c.Wait(wctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("job never merged after transient write failure: %v", err)
	}
	if st.State != JobDone {
		t.Fatalf("job state %s, want done", st.State)
	}
}

// variants returns n distinctly named variants cycling through
// testSpec's two.
func variants(n int) []sweepfile.Variant {
	base := testSpec().Variants
	vs := make([]sweepfile.Variant, n)
	for v := range vs {
		vs[v] = base[v%len(base)]
		vs[v].Name = fmt.Sprintf("%s-%d", vs[v].Name, v)
	}
	return vs
}

// TestSubmitRefusesHugeCounts: a submit asking for 1<<40 shards, or
// carrying a spec of 1<<40 seeds, of 4097 variants (one more than
// crn's maxVariants) or with an 8193-node variant (one more than crn's
// maxNodes), is answered 400 instead of planning one shard range per
// requested shard (which took the daemon down with an out-of-memory
// fatal error), building every variant or building a graph above the
// scenario bound. A spec of 100 000 variants is refused by the submit
// body bound before it is decoded (decoding it allocated about
// 140 MB). The same daemon then completes a normal job and accepts a
// spec of exactly 4096 variants.
func TestSubmitRefusesHugeCounts(t *testing.T) {
	ctx := context.Background()
	const maxVariants = 1 << 12 // crn's variant bound
	srv, ts, c := startServer(t, t.TempDir(), time.Minute)
	hugeSeeds := testSpec()
	hugeSeeds.Seeds = 1 << 40
	wide := testSpec()
	wide.Variants = variants(maxVariants + 1)
	big := testSpec()
	big.Variants[1].N = 8193 // one more than crn's node bound
	for name, req := range map[string]SubmitRequest{
		"shards":   {Spec: testSpec(), Shards: 1 << 40},
		"seeds":    {Spec: hugeSeeds, Shards: 2},
		"variants": {Spec: wide, Shards: 2},
		"nodes":    {Spec: big, Shards: 2},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("huge %s: submit answered %d, want 400", name, resp.StatusCode)
		}
	}

	flood := testSpec()
	flood.Variants = variants(100_000)
	body, err := json.Marshal(SubmitRequest{Spec: flood, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("100 000 variants: submit answered %d, want 400", rec.Code)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusing a %d-byte submit of 100 000 variants allocated %d bytes", len(body), alloc)
	if alloc >= 16<<20 {
		t.Errorf("refusing a %d-byte submit allocated %d bytes, want under 16 MB", len(body), alloc)
	}

	id, err := c.Submit(ctx, testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wk := &Worker{Client: c, Name: "w1", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 2, Log: quietLog()}
	if err := wk.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Done != 2 {
		t.Fatalf("normal job after the refusals did not finish: %+v", st)
	}

	widest := testSpec()
	widest.Variants = variants(maxVariants)
	if _, err := c.Submit(ctx, widest, 2); err != nil {
		t.Errorf("a spec of exactly %d variants was refused: %v", maxVariants, err)
	}
}
