package sweepd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crn"
	"crn/internal/sweepfile"
)

// statusReply is one raw status request's outcome.
type statusReply struct {
	code int
	st   JobStatus
	err  error
	at   time.Time
}

// getStatus issues GET /api/v1/jobs/{id}{query} in the background.
func getStatus(base, id, query string) chan statusReply {
	out := make(chan statusReply, 1)
	go func() {
		var r statusReply
		resp, err := http.Get(base + "/api/v1/jobs/" + id + query)
		if err != nil {
			r.err = err
		} else {
			r.code = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				r.err = json.NewDecoder(resp.Body).Decode(&r.st)
			}
			resp.Body.Close()
		}
		r.at = time.Now()
		out <- r
	}()
	return out
}

// leasedArtifact submits sf in one shard, leases that shard and runs
// it, returning the job id, the grant and the artifact to upload.
func leasedArtifact(t *testing.T, c *Client, sf *sweepfile.Spec) (string, *LeaseGrant, *sweepfile.Artifact) {
	t.Helper()
	ctx := context.Background()
	id, err := c.Submit(ctx, sf, 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire: grant=%v err=%v", grant, err)
	}
	spec, err := sweepfile.BuildSweepSpec(grant.Manifest.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(ctx, spec, grant.Manifest.Plan, grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sweepfile.NewArtifact(grant.Manifest.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	return id, grant, a
}

// stillHeld fails the test if held has already replied.
func stillHeld(t *testing.T, held chan statusReply, what string) {
	t.Helper()
	time.Sleep(100 * time.Millisecond) // let the request reach the daemon
	select {
	case r := <-held:
		t.Fatalf("held status request returned before %s: http %d, state %q", what, r.code, r.st.State)
	default:
	}
}

// TestHeldWaitReturnsOnMerge: a status request with wait= on a running
// job is held until the merge lands, then replies done.
func TestHeldWaitReturnsOnMerge(t *testing.T) {
	_, ts, c := startServer(t, t.TempDir(), time.Minute)
	id, grant, a := leasedArtifact(t, c, testSpec())
	held := getStatus(ts.URL, id, "?wait=20s")
	stillHeld(t, held, "the merge")
	merged := time.Now()
	if err := c.Complete(context.Background(), grant.Lease, a); err != nil {
		t.Fatal(err)
	}
	r := <-held
	if r.err != nil || r.code != http.StatusOK || r.st.State != JobDone {
		t.Fatalf("held status after the merge: http %d, state %q, err %v; want 200 done", r.code, r.st.State, r.err)
	}
	if d := r.at.Sub(merged); d > 5*time.Second {
		t.Errorf("held status returned %v after the merge, want at once", d)
	}
}

// TestHeldWaitTimesOutWithoutWorkers: on a job nobody works, a held
// status request replies with the job's current state once the wait
// elapses.
func TestHeldWaitTimesOutWithoutWorkers(t *testing.T) {
	_, ts, c := startServer(t, t.TempDir(), time.Minute)
	id, err := c.Submit(context.Background(), testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := <-getStatus(ts.URL, id, "?wait=300ms")
	if r.err != nil || r.code != http.StatusOK || r.st.State != JobQueued {
		t.Fatalf("held status of an idle job: http %d, state %q, err %v; want 200 queued", r.code, r.st.State, r.err)
	}
	if d := r.at.Sub(start); d < 300*time.Millisecond {
		t.Errorf("held status returned after %v, before its 300ms wait", d)
	}
}

// TestHeldWaitWakesOnFailure: a job failed by a shard exhausting its
// attempts wakes a held status request, which replies failed.
func TestHeldWaitWakesOnFailure(t *testing.T) {
	srv, err := New(Config{Spool: t.TempDir(), MaxAttempts: 1, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)
	ctx := context.Background()
	id, err := c.Submit(ctx, testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1")
	if err != nil || grant == nil {
		t.Fatalf("acquire: grant=%v err=%v", grant, err)
	}
	held := getStatus(ts.URL, id, "?wait=20s")
	stillHeld(t, held, "the job failed")
	if err := c.Fail(ctx, grant.Lease, "boom"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-held:
		if r.err != nil || r.code != http.StatusOK || r.st.State != JobFailed || !strings.Contains(r.st.Error, "boom") {
			t.Fatalf("held status after the failure: http %d, state %q, error %q, err %v; want 200 failed", r.code, r.st.State, r.st.Error, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a failed job did not wake its held status request")
	}
}

// TestWaitParamValidation: a malformed or negative wait gets 400; an
// unknown job gets 404 without being held.
func TestWaitParamValidation(t *testing.T) {
	_, ts, c := startServer(t, t.TempDir(), time.Minute)
	id, err := c.Submit(context.Background(), testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?wait=abc", "?wait=-1s", "?wait="} {
		if r := <-getStatus(ts.URL, id, q); r.err != nil || r.code != http.StatusBadRequest {
			t.Errorf("status%s: http %d, err %v; want 400", q, r.code, r.err)
		}
	}
	start := time.Now()
	if r := <-getStatus(ts.URL, "jdeadbeef", "?wait=20s"); r.err != nil || r.code != http.StatusNotFound {
		t.Errorf("held status of an unknown job: http %d, err %v; want 404", r.code, r.err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("unknown job held for %v before its 404", d)
	}
}

// countingTransport counts the status requests a client sends.
type countingTransport struct{ status atomic.Int64 }

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/api/v1/jobs/") {
		t.status.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWaitHoldsInsteadOfPolling: Wait with a 1ms poll on a job that
// takes at least 300ms sends a held request, not one per millisecond.
func TestWaitHoldsInsteadOfPolling(t *testing.T) {
	_, ts, c := startServer(t, t.TempDir(), time.Minute)
	id, grant, a := leasedArtifact(t, c, testSpec())
	done := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		done <- c.Complete(context.Background(), grant.Lease, a)
	}()
	rt := &countingTransport{}
	st, err := NewClient(ts.URL, WithTransport(rt)).Wait(context.Background(), id, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("Wait returned state %q, want done", st.State)
	}
	if n := rt.status.Load(); n > 3 {
		t.Errorf("Wait sent %d status requests over a 300ms job, want at most 3", n)
	}
}

// TestWorkerRunsTwoJobsBackToBack: one worker runs every shard of two
// different jobs in turn, replacing its runner when the second job's
// lease arrives; both results byte-match in-process crn.Sweep.
func TestWorkerRunsTwoJobsBackToBack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	_, _, c := startServer(t, t.TempDir(), time.Minute)
	other := testSpec()
	other.BaseSeed = 7
	other.Variants[0].Seed = 3
	specs := []*sweepfile.Spec{testSpec(), other}
	ids := make([]string, len(specs))
	for i, sf := range specs {
		var err error
		if ids[i], err = c.Submit(ctx, sf, 2); err != nil {
			t.Fatal(err)
		}
	}
	wk := &Worker{Client: c, Name: "w1", Workers: 2, Poll: 10 * time.Millisecond, MaxShards: 4, Log: quietLog()}
	if err := wk.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if _, err := c.Wait(ctx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		_, got, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if want := directBytes(t, specs[i]); string(got) != string(want) {
			t.Errorf("job %d of 2 run by one worker diverged from in-process crn.Sweep", i+1)
		}
	}
}
