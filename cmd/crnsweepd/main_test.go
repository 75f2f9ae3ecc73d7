package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crn"
	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

func TestCLIValidation(t *testing.T) {
	ctx := context.Background()
	bad := [][]string{
		{},
		{"teleport"},
		{"serve"},                             // missing -spool
		{"worker"},                            // missing -connect
		{"submit"},                            // missing -connect/-spec
		{"submit", "-connect", "127.0.0.1:1"}, // missing -spec
		{"status"},                            // missing -connect
		{"result", "-connect", "127.0.0.1:1"}, // missing -job
		{"wait", "-connect", "127.0.0.1:1"},   // missing -job
		{"chaos", "-seeds", "0"},              // nothing to run
		{"chaos", "-spec", "no-such-spec.json"},
		{"chaos", "-golden", "no-such-golden.json"},
	}
	for _, args := range bad {
		if err := run(ctx, args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
	if err := run(ctx, []string{"help"}, io.Discard); err != nil {
		t.Errorf("help: %v", err)
	}
}

// TestServeShutsDownGracefully: serve drains and exits cleanly when
// its context is cancelled (the SIGINT/SIGTERM path).
func TestServeShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-spool", t.TempDir()}, &out)
	}()
	// Give the listener a beat to come up, then signal.
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after cancellation")
	}
	if !strings.Contains(out.String(), "stopped cleanly") {
		t.Errorf("serve output missing graceful-shutdown marker:\n%s", out.String())
	}
}

// TestServeSetsHeaderTimeout: the server serve runs (newHTTPServer)
// drops a connection whose headers stall, and sets no read or write
// timeout, which would cut held status waits and long uploads short.
func TestServeSetsHeaderTimeout(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; want neither", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// syncBuf is a strings.Builder safe to read while serve writes to it.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeDrainLosesNoAckedShard: a SIGTERM that lands while an
// artifact upload is mid-POST must not lose the shard — serve's drain
// (-draintimeout) holds the door until the in-flight Complete is
// processed and acked, and the acked artifact is on disk afterwards.
// A status wait held on a job nobody works does not hold the drain:
// serve ends it before draining, so it exits cleanly well inside the
// drain timeout.
func TestServeDrainLosesNoAckedShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spool := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-spool", spool, "-draintimeout", "5s"}, &out)
	}()
	// Parse the listen address from serve's banner.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if s := out.String(); strings.Contains(s, "serving on ") {
			rest := s[strings.Index(s, "serving on ")+len("serving on "):]
			addr = rest[:strings.IndexByte(rest, ' ')]
		} else if time.Now().After(deadline) {
			t.Fatalf("serve never came up:\n%s", out.String())
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	c := sweepd.NewClient(addr)
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sf, err := sweepfile.LoadSpec(filepath.Join("..", "crnsweep", "testdata", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(ctx, sf, 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "drainer")
	if err != nil || grant == nil {
		t.Fatalf("acquire: grant=%v err=%v", grant, err)
	}
	idle, err := c.Submit(ctx, sf, 1)
	if err != nil {
		t.Fatal(err)
	}
	heldc := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/api/v1/jobs/" + idle + "?wait=30s")
		if err != nil {
			heldc <- 0
			return
		}
		resp.Body.Close()
		heldc <- resp.StatusCode
	}()
	spec, err := sweepfile.BuildSweepSpec(grant.Manifest.Spec, 0)
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
	payload, err := json.Marshal(&sweepd.CompleteRequest{Artifact: a})
	if err != nil {
		t.Fatal(err)
	}

	// Upload the artifact with a body that stalls halfway so the
	// request is provably in flight when the shutdown signal lands.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", "http://"+addr+"/api/v1/leases/"+grant.Lease+"/complete", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(payload))
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		resp.Body.Close()
		respc <- resp
	}()
	if _, err := pw.Write(payload[:len(payload)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // handler is blocked reading the body
	cancel()                           // the SIGTERM path: serve starts draining
	time.Sleep(150 * time.Millisecond) // drain overlaps the stalled upload
	if _, err := pw.Write(payload[len(payload)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	select {
	case resp := <-respc:
		if resp.StatusCode/100 != 2 {
			t.Fatalf("in-flight complete rejected during drain: http %d", resp.StatusCode)
		}
	case err := <-errc:
		t.Fatalf("in-flight complete failed during drain: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight complete never finished")
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v\n%s", err, out.String())
	}
	select {
	case code := <-heldc:
		if code != http.StatusOK {
			t.Errorf("held status wait ended by the drain with http %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("a status wait still held after serve exited")
	}
	if !strings.Contains(out.String(), "stopped cleanly") {
		t.Errorf("serve output missing graceful-shutdown marker:\n%s", out.String())
	}

	// The acked shard survived the shutdown: its artifact validates on
	// disk, and — being the job's last shard — the merge landed too,
	// byte-identical to the committed in-process golden.
	dir := filepath.Join(spool, "jobs", id)
	m, _, err := sweepfile.LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweepfile.LoadArtifact(m, dir, grant.Shard); err != nil {
		t.Fatalf("acked artifact lost to shutdown: %v", err)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatalf("acked final shard did not merge before shutdown: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "crnsweep", "testdata", "golden", "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != string(want) {
		t.Error("drained merge diverged from the committed golden merged output")
	}
}

// TestChaosCLISmoke: the chaos verb end to end — golden pre-check plus
// a small matrix — exercising the same path CI's wide run takes.
func TestChaosCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations under fault injection")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var out strings.Builder
	err := run(ctx, []string{"chaos",
		"-spec", filepath.Join("..", "crnsweep", "testdata", "spec.json"),
		"-golden", filepath.Join("..", "crnsweep", "testdata", "golden", "merged.json"),
		"-seeds", "2", "-seedbase", "2", "-shards", "2", "-timeout", "60s",
	}, &out)
	if err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reference matches golden") {
		t.Errorf("golden pre-check missing from output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 contract violations") {
		t.Errorf("summary missing from output:\n%s", out.String())
	}
	// A golden that is NOT the reference bytes must refuse up front.
	if err := run(ctx, []string{"chaos",
		"-spec", filepath.Join("..", "crnsweep", "testdata", "spec.json"),
		"-golden", filepath.Join("..", "crnsweep", "testdata", "spec.json"),
		"-seeds", "1"}, io.Discard); err == nil || !strings.Contains(err.Error(), "golden") {
		t.Errorf("mismatched golden accepted: %v", err)
	}
}

// TestCLIAgainstService drives submit → status → worker → wait → result
// through the CLI verbs against an in-process daemon, and checks the
// fetched result byte-matches `crnsweep sweep` semantics (the shared
// spec from cmd/crnsweep's testdata).
func TestCLIAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	srv, err := sweepd.New(sweepd.Config{
		Spool:    t.TempDir(),
		LeaseTTL: time.Minute,
		Log:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specPath := filepath.Join("..", "crnsweep", "testdata", "spec.json")

	var submitOut strings.Builder
	if err := run(ctx, []string{"submit", "-connect", ts.URL, "-spec", specPath, "-shards", "3"}, &submitOut); err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(submitOut.String())
	if id == "" || strings.ContainsAny(id, " \n") {
		t.Fatalf("submit did not print a bare job id: %q", submitOut.String())
	}

	var statusOut strings.Builder
	if err := run(ctx, []string{"status", "-connect", ts.URL, "-job", id}, &statusOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statusOut.String(), "0/3 shards done") {
		t.Errorf("status output unexpected:\n%s", statusOut.String())
	}

	// result before completion must refuse.
	if err := run(ctx, []string{"result", "-connect", ts.URL, "-job", id}, io.Discard); err == nil {
		t.Error("result of an unfinished job accepted")
	}

	// A CLI worker drains the whole job, then exits via -maxshards.
	if err := run(ctx, []string{"worker", "-connect", ts.URL, "-name", "cli-w", "-maxshards", "3", "-poll", "20ms"}, io.Discard); err != nil {
		t.Fatal(err)
	}

	resultPath := filepath.Join(t.TempDir(), "service.json")
	var waitOut strings.Builder
	if err := run(ctx, []string{"wait", "-connect", ts.URL, "-job", id, "-out", resultPath, "-poll", "20ms"}, &waitOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(waitOut.String(), "done: 3/3") {
		t.Errorf("wait output unexpected:\n%s", waitOut.String())
	}

	got, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	// The committed golden merged output is the in-process crn.Sweep
	// reference for this spec (pinned by cmd/crnsweep's tests): the
	// service result must byte-match it, shards and workers be damned.
	want, err := os.ReadFile(filepath.Join("..", "crnsweep", "testdata", "golden", "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("service result diverged from the committed golden merged output")
	}

	// The `result` verb fetches the same bytes again.
	var resultOut strings.Builder
	if err := run(ctx, []string{"result", "-connect", ts.URL, "-job", id}, &resultOut); err != nil {
		t.Fatal(err)
	}
	if resultOut.String() != string(want) {
		t.Error("result verb bytes diverged from wait -out bytes")
	}
}

// TestWorkerAbandonFlag: -abandon makes the worker exit after taking
// a lease without completing it — the straggler CI simulation.
func TestWorkerAbandonFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ctx := context.Background()
	srv, err := sweepd.New(sweepd.Config{
		Spool:    t.TempDir(),
		LeaseTTL: time.Minute,
		Log:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specPath := filepath.Join("..", "crnsweep", "testdata", "spec.json")
	var submitOut strings.Builder
	if err := run(ctx, []string{"submit", "-connect", ts.URL, "-spec", specPath, "-shards", "2"}, &submitOut); err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(submitOut.String())

	if err := run(ctx, []string{"worker", "-connect", ts.URL, "-name", "straggler", "-abandon", "1", "-poll", "20ms"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var statusOut strings.Builder
	if err := run(ctx, []string{"status", "-connect", ts.URL, "-job", id}, &statusOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statusOut.String(), "leased") {
		t.Errorf("abandoned lease not visible in status:\n%s", statusOut.String())
	}
}
