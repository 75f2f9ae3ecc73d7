package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

// The service/roundtrip rung: one op is one job through an in-process
// crnsweepd — Submit, Wait and Result of roundtripSpec in
// roundtripShards shards — served on loopback to two in-process
// workers. Wait polls at roundtripWaitPoll, the interval `crnsweep
// sweep -remote` uses, so the rung prices what a remote sweep pays
// between the job's last merge and the caller seeing it.
const (
	roundtripShards   = 4
	roundtripWorkers  = 2
	roundtripPoll     = 2 * time.Millisecond
	roundtripWaitPoll = 500 * time.Millisecond
)

// roundtripSpec is cmd/crnsweep/testdata/spec.json, the spec every
// service byte-diff in CI runs (TestRoundtripSpecIsTestdata keeps the
// two equal); it is written out here so the rung runs from any
// directory.
func roundtripSpec() *sweepfile.Spec {
	return &sweepfile.Spec{
		Primitive: "cseek",
		Seeds:     4,
		BaseSeed:  42,
		Variants: []sweepfile.Variant{
			{Name: "quiet-path", Topology: "path", N: 6, Channels: 3, K: 2, Seed: 1},
			{Name: "busy-star", Topology: "star", N: 8, Channels: 4, K: 2, Seed: 2, Preset: "urban-busy"},
		},
	}
}

// roundtripBench runs the rung. The daemon, its spool and the workers
// start and stop off the clock.
func roundtripBench(b *testing.B) {
	svc, err := startRoundtrip()
	if err != nil {
		b.Fatal(err)
	}
	defer svc.stop()
	sf := roundtripSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.job(sf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// roundtrip is the rung's daemon: a sweepd.Server over a temporary
// spool, its HTTP server on a loopback port, and the pull workers.
type roundtrip struct {
	srv         *sweepd.Server
	hs          *http.Server
	client      *sweepd.Client
	spool       string
	stopWorkers context.CancelFunc
	running     sync.WaitGroup // the serve loop and the workers
}

func startRoundtrip() (*roundtrip, error) {
	spool, err := os.MkdirTemp("", "crnbench-spool-")
	if err != nil {
		return nil, err
	}
	quiet := log.New(io.Discard, "", 0)
	srv, err := sweepd.New(sweepd.Config{Spool: spool, Log: quiet})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(spool)
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	rt := &roundtrip{
		srv:         srv,
		hs:          &http.Server{Handler: srv.Handler()},
		client:      sweepd.NewClient(url),
		spool:       spool,
		stopWorkers: cancel,
	}
	rt.running.Add(1 + roundtripWorkers)
	go func() {
		defer rt.running.Done()
		rt.hs.Serve(ln)
	}()
	for i := 0; i < roundtripWorkers; i++ {
		wk := &sweepd.Worker{
			Client: sweepd.NewClient(url), Name: fmt.Sprintf("roundtrip-%d", i),
			Workers: 1, Poll: roundtripPoll, Log: quiet,
		}
		go func() {
			defer rt.running.Done()
			wk.Run(ctx)
		}()
	}
	if err := rt.client.WaitReady(ctx, 10*time.Second); err != nil {
		rt.stop()
		return nil, err
	}
	return rt, nil
}

// job is one op: it submits sf, waits for the job and fetches its
// merged result.
func (rt *roundtrip) job(sf *sweepfile.Spec) error {
	ctx := context.Background()
	id, err := rt.client.Submit(ctx, sf, roundtripShards)
	if err != nil {
		return err
	}
	if _, err := rt.client.Wait(ctx, id, roundtripWaitPoll); err != nil {
		return err
	}
	_, _, err = rt.client.Result(ctx, id)
	return err
}

// stop cancels the workers, closes the HTTP and sweepd servers, waits
// for every goroutine and removes the spool.
func (rt *roundtrip) stop() {
	rt.stopWorkers()
	rt.srv.Close()
	rt.hs.Close()
	rt.running.Wait()
	os.RemoveAll(rt.spool)
}
