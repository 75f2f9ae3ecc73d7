package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crn"
	"crn/internal/rng"
	"crn/internal/sweepfile"
)

// Client speaks the crnsweepd HTTP API. The zero value is not usable;
// construct with NewClient.
//
// Every request carries its own deadline (WithRequestTimeout, default
// 5s) so a stalled daemon or a black-holed connection cannot wedge a
// worker forever, and idempotent verbs retry transport failures and
// 5xx replies with jittered exponential backoff. 429 replies retry for
// every verb — they mean the daemon shed the request before processing
// it — honoring the daemon's Retry-After. Submit is the one verb that
// never retries a failure after the request may have been processed: a
// replayed submit would queue a second job.
type Client struct {
	base      string
	hc        *http.Client
	timeout   time.Duration
	retries   int
	retryBase time.Duration
	retryCap  time.Duration
	sleep     func(ctx context.Context, d time.Duration) error

	mu     sync.Mutex
	jitter *rng.Source
}

// Client retry/deadline defaults.
const (
	DefaultRequestTimeout = 5 * time.Second
	DefaultRetries        = 4
	DefaultRetryBase      = 100 * time.Millisecond
	defaultRetryCap       = 2 * time.Second
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRequestTimeout sets the per-request deadline (0 disables it).
// It is distinct from any overall polling deadline: Wait may poll for
// minutes while every individual status request still times out fast.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithTransport sets the underlying http.RoundTripper — the seam
// internal/chaos uses to inject transport faults.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.hc.Transport = rt }
}

// WithRetries bounds retry attempts (max extra attempts after the
// first) and sets the backoff base; the backoff doubles per attempt
// with ±50% jitter, capped at 2s. max 0 disables retries.
func WithRetries(max int, base time.Duration) ClientOption {
	return func(c *Client) {
		c.retries = max
		if base > 0 {
			c.retryBase = base
		}
	}
}

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:8471"). A missing scheme defaults to http://.
func NewClient(base string, opts ...ClientOption) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	h := fnv.New64a()
	io.WriteString(h, base)
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		hc:        &http.Client{},
		timeout:   DefaultRequestTimeout,
		retries:   DefaultRetries,
		retryBase: DefaultRetryBase,
		retryCap:  defaultRetryCap,
		sleep:     sleepCtx,
		jitter:    rng.New(h.Sum64()),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a non-2xx reply from the daemon, carrying the decoded
// error message and any Retry-After hint.
type APIError struct {
	Method, Path string
	Status       int
	Msg          string
	RetryAfter   time.Duration
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s %s: %s (http %d)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("%s %s: http %d", e.Method, e.Path, e.Status)
}

// IsConflict reports whether err is a 409 reply — a lease the daemon
// no longer recognizes (expiry won) or a result that is not ready.
func IsConflict(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusConflict
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jittered returns a uniform duration in [d/2, 3d/2).
func (c *Client) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.jitter.Intn(int(d)))
}

// attempt issues one request under the per-request deadline. A
// deadline expiry is surfaced as an error wrapping
// context.DeadlineExceeded — distinguishable (errors.Is) from
// transport errors like a refused connection or an injected reset.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte) (status int, doc []byte, retryAfter time.Duration, err error) {
	rctx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, c.classify(ctx, method, path, err)
	}
	defer resp.Body.Close()
	doc, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, 0, c.classify(ctx, method, path, err)
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, aerr := strconv.Atoi(s); aerr == nil && n > 0 {
			retryAfter = time.Duration(n) * time.Second
		}
	}
	return resp.StatusCode, doc, retryAfter, nil
}

// classify wraps a transport-layer failure, keeping the per-request
// deadline case identifiable via errors.Is(err, context.DeadlineExceeded).
func (c *Client) classify(ctx context.Context, method, path string, err error) error {
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		return fmt.Errorf("%s %s: no reply within the %v request deadline: %w",
			method, path, c.timeout, context.DeadlineExceeded)
	}
	return fmt.Errorf("%s %s: %w", method, path, err)
}

// request issues method path with bounded, jittered-exponential
// retries and returns the final status and body. Transport errors and
// 5xx replies retry only when idem is true; 429 retries regardless.
// The context governs the whole exchange, each attempt its own
// deadline.
func (c *Client) request(ctx context.Context, method, path string, in any, idem bool) (int, []byte, error) {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return 0, nil, err
		}
	}
	delay := c.retryBase
	var (
		lastStatus int
		lastBody   []byte
		lastErr    error
	)
	for attempt := 0; ; attempt++ {
		status, doc, retryAfter, err := c.attempt(ctx, method, path, payload)
		retryable := false
		wait := time.Duration(0)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, err
			}
			retryable = idem
			lastStatus, lastBody, lastErr = 0, nil, err
		} else {
			switch {
			case status == http.StatusTooManyRequests:
				// The daemon shed the request before touching it:
				// safe to retry any verb, at the daemon's pace.
				retryable = true
				wait = retryAfter
			case status >= 500:
				retryable = idem
			}
			lastStatus, lastBody, lastErr = status, doc, nil
		}
		if !retryable || attempt >= c.retries {
			return lastStatus, lastBody, lastErr
		}
		if wait <= 0 {
			wait = c.jittered(delay)
			if delay *= 2; delay > c.retryCap {
				delay = c.retryCap
			}
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			if lastErr != nil {
				return 0, nil, lastErr
			}
			return 0, nil, serr
		}
	}
}

func (c *Client) apiError(method, path string, status int, doc []byte, retryAfter time.Duration) error {
	ae := &APIError{Method: method, Path: path, Status: status, RetryAfter: retryAfter}
	var er errorReply
	if json.Unmarshal(doc, &er) == nil {
		ae.Msg = er.Error
	}
	return ae
}

// do issues one request; out, when non-nil, receives the decoded JSON
// reply. idem marks the verb safe to retry after a failure whose
// effect on the daemon is unknown.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idem bool) error {
	status, doc, err := c.request(ctx, method, path, in, idem)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return c.apiError(method, path, status, doc, 0)
	}
	if out == nil || status == http.StatusNoContent {
		return nil
	}
	return json.Unmarshal(doc, out)
}

// WaitReady polls the daemon's health endpoint until it answers or
// the timeout elapses — submit scripts race daemon startup otherwise.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := c.do(ctx, http.MethodGet, "/api/v1/healthz", nil, nil, true)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready after %v: %w", c.base, timeout, err)
		}
		if err := c.sleep(ctx, 100*time.Millisecond); err != nil {
			return err
		}
	}
}

// Submit queues a sweep and returns its job id. Submit does not retry
// past the point where the daemon may have queued the job (it would
// queue a duplicate); only shed (429) requests are replayed.
func (c *Client) Submit(ctx context.Context, spec *sweepfile.Spec, shards int) (string, error) {
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/api/v1/jobs", &SubmitRequest{Spec: spec, Shards: shards}, &resp, false); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) (*JobList, error) {
	var list JobList
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, &list, true); err != nil {
		return nil, err
	}
	return &list, nil
}

// Status fetches one job's live state.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a done job's merged SweepResult — both parsed and as
// the verbatim bytes the daemon serves, which are the bytes an
// in-process crn.Sweep would have produced (the byte-identity
// contract; compare them with cmp/diff, not semantically).
func (c *Client) Result(ctx context.Context, id string) (*crn.SweepResult, []byte, error) {
	path := "/api/v1/jobs/" + id + "/result"
	status, doc, err := c.request(ctx, http.MethodGet, path, nil, true)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, c.apiError(http.MethodGet, path, status, doc, 0)
	}
	res := new(crn.SweepResult)
	if err := json.Unmarshal(doc, res); err != nil {
		return nil, nil, err
	}
	return res, doc, nil
}

// Wait blocks until a job is done (returning its final status) or
// failed (returning an error). Each status request asks the daemon to
// hold it until the job ends, for half the per-request timeout (or
// maxStatusHold when timeouts are off), so Wait returns as soon as the
// merge lands and the request deadline never fires on a healthy hold.
// poll (default 500ms) is the least time between the starts of two
// status requests: a held reply is followed at once, and a daemon that
// does not hold is not hammered.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	hold := maxStatusHold
	if c.timeout > 0 {
		hold = c.timeout / 2
	}
	path := "/api/v1/jobs/" + id + "?wait=" + hold.String()
	for {
		start := time.Now()
		var st JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &st, true); err != nil {
			return nil, err
		}
		switch st.State {
		case JobDone:
			return &st, nil
		case JobFailed:
			return &st, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if err := c.sleep(ctx, poll-time.Since(start)); err != nil {
			return nil, err
		}
	}
}

// Acquire pulls one lease; nil means no work is available right now.
// Safe to retry: a grant whose reply was lost expires via its TTL and
// is re-dispatched — no shard is ever lost to a dropped response.
func (c *Client) Acquire(ctx context.Context, worker string) (*LeaseGrant, error) {
	path := "/api/v1/lease"
	status, doc, err := c.request(ctx, http.MethodPost, path, &LeaseRequest{Worker: worker}, true)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		grant := new(LeaseGrant)
		if err := json.Unmarshal(doc, grant); err != nil {
			return nil, err
		}
		return grant, nil
	default:
		return nil, c.apiError(http.MethodPost, path, status, doc, 0)
	}
}

// Heartbeat extends a held lease.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/heartbeat", &struct{}{}, nil, true)
}

// Complete uploads a finished shard's artifact under its lease.
// Idempotent on the daemon side: re-uploading the artifact for a lease
// that already completed is a no-op 204, so a worker whose ack was
// lost in transit can retry safely.
func (c *Client) Complete(ctx context.Context, leaseID string, a *sweepfile.Artifact) error {
	return c.do(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/complete", &CompleteRequest{Artifact: a}, nil, true)
}

// Fail releases a lease the worker cannot finish.
func (c *Client) Fail(ctx context.Context, leaseID, reason string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/fail", &FailRequest{Reason: reason}, nil, true)
}
