package chaos

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crn/internal/sweepfile"
)

// mkSched hand-builds a schedule: kinds[i] is event i's fault ("" for
// none).
func mkSched(kinds ...string) *Schedule {
	s := &Schedule{
		faults:   map[int]string{},
		delays:   map[int]time.Duration{},
		injected: map[string]int{},
	}
	for i, k := range kinds {
		if k != "" {
			s.faults[i] = k
		}
	}
	return s
}

// TestPlanDeterminism pins the acceptance criterion that the same
// chaos seed replays the same fault schedule: two plans compiled from
// the same spec must describe identical timetables (and identical
// process plans), while a different seed must diverge.
func TestPlanDeterminism(t *testing.T) {
	a, b := NewPlan(DefaultSpec(7)), NewPlan(DefaultSpec(7))
	da, db := a.Describe(), b.Describe()
	if len(da) == 0 {
		t.Fatal("default spec drew an empty fault schedule")
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatalf("same seed, different schedules:\n%v\nvs\n%v", da, db)
	}
	pa, pb := a.ProcessPlan(2, 4), b.ProcessPlan(2, 4)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("same seed, different process plans: %+v vs %+v", pa, pb)
	}
	if c := NewPlan(DefaultSpec(8)); reflect.DeepEqual(da, c.Describe()) {
		t.Fatal("different seeds drew identical schedules")
	}
}

// TestScheduleBudgetsBounded checks the t-bounded contract: a
// schedule never plans more faults of a kind than its budget allows.
func TestScheduleBudgetsBounded(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		spec := DefaultSpec(seed)
		p := NewPlan(spec)
		for _, tc := range []struct {
			sched   *Schedule
			budgets []Budget
		}{
			{p.Transport, spec.Transport},
			{p.Server, spec.Server},
			{p.Writes, spec.Writes},
			{p.Reads, spec.Reads},
		} {
			counts := map[string]int{}
			for _, k := range tc.sched.faults {
				counts[k]++
			}
			for _, b := range tc.budgets {
				if counts[b.Kind] > b.Count {
					t.Errorf("seed %d: %d %s faults planned, budget %d", seed, counts[b.Kind], b.Kind, b.Count)
				}
			}
		}
	}
}

func TestFSWriteFaults(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(mkSched(FaultWriteErr, FaultTorn, ""), mkSched(), t.Logf)
	path := filepath.Join(dir, "artifact.json")
	data := []byte(`{"ok":true}`)

	// Event 0: write error, plus zero-length temp debris for recovery
	// to find.
	if err := fs.WriteFileAtomic(path, data); err == nil {
		t.Fatal("injected write error reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	debris := 0
	for _, e := range entries {
		if sweepfile.IsTempFile(e.Name()) {
			debris++
			if info, _ := e.Info(); info.Size() != 0 {
				t.Errorf("debris %s has %d bytes, want zero-length", e.Name(), info.Size())
			}
		}
	}
	if debris != 1 {
		t.Fatalf("found %d temp debris files, want 1", debris)
	}

	// Event 1: torn write — success reported, truncated bytes on disk.
	if err := fs.WriteFileAtomic(path, data); err != nil {
		t.Fatalf("torn write should report success, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data)/2 {
		t.Fatalf("torn write landed %d bytes, want %d", len(got), len(data)/2)
	}

	// Event 2: clean write heals the file.
	if err := fs.WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(data) {
		t.Fatalf("clean write landed %q, want %q", got, data)
	}

	// The debris is exactly what RemoveStaleTemps sweeps.
	removed, err := sweepfile.RemoveStaleTemps(sweepfile.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("RemoveStaleTemps removed %v, want the 1 debris file", removed)
	}
}

func TestFSReadFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	data := []byte(`{"n":12345}`)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewFS(mkSched(), mkSched(FaultCorrupt, FaultReadErr, ""), t.Logf)

	// Event 0: corrupt read — exactly one bit differs, disk untouched.
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt read changed %d bytes, want exactly 1", diff)
	}
	if onDisk, _ := os.ReadFile(path); string(onDisk) != string(data) {
		t.Fatal("corrupt read damaged the file on disk")
	}

	// Event 1: read error.
	if _, err := fs.ReadFile(path); err == nil {
		t.Fatal("injected read error reported success")
	}

	// Event 2: clean.
	if got, err := fs.ReadFile(path); err != nil || string(got) != string(data) {
		t.Fatalf("clean read: %q, %v", got, err)
	}
}

func TestTransportFaults(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	tr := NewTransport(mkSched(FaultDropRequest, FaultDropReply, FaultDuplicate, ""), t.Logf)
	hc := &http.Client{Transport: tr}

	// Event 0: dropped request — the server never sees it.
	if _, err := hc.Get(ts.URL); err == nil {
		t.Fatal("dropped request returned a response")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("dropped request reached the server (%d hits)", n)
	}

	// Event 1: dropped reply — the server processed it, caller errors.
	if _, err := hc.Get(ts.URL); err == nil {
		t.Fatal("dropped reply returned a response")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("dropped-reply request hit the server %d times, want 1", n)
	}

	// Event 2: duplicate — delivered twice, caller gets a response.
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatalf("duplicated request failed: %v", err)
	}
	resp.Body.Close()
	if n := hits.Load(); n != 3 {
		t.Fatalf("duplicate delivered %d total hits, want 3", n)
	}

	// Event 3: clean.
	resp, err = hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := hits.Load(); n != 4 {
		t.Fatalf("clean request: %d total hits, want 4", n)
	}
}

func TestMiddlewareFaultsLeasePathsOnly(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	// Every lease-path event faults; control paths never do.
	h := Middleware(mkSched(FaultShed429, FaultError500), t.Logf, inner)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/j1", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("control path got chaosed: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/lease", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("lease path: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed reply missing Retry-After")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/leases/l1/heartbeat", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("lease path: got %d, want 500", rec.Code)
	}
}

// TestDelayRespectsContext: an injected delay must not outlive the
// request's deadline — the client's per-request timeout stays in
// charge.
func TestDelayRespectsContext(t *testing.T) {
	s := mkSched(FaultDelay)
	s.delays[0] = 10 * time.Second
	tr := NewTransport(s, t.Logf)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://127.0.0.1:1/nope", nil)
	start := time.Now()
	_, err := tr.RoundTrip(req)
	if err == nil {
		t.Fatal("expected context error")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("got %v, want deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay ignored the context (%v elapsed)", elapsed)
	}
}
