package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestParseOptionsDefaults(t *testing.T) {
	opt, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opt.addr != ":8090" || opt.warm != 1 || opt.journalDir != "" {
		t.Fatalf("defaults: %+v", opt)
	}
	if err := opt.validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
}

func TestParseOptionsErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-max-concurrent", "x"},
	}
	for _, args := range cases {
		if _, err := parseOptions(args, io.Discard); err == nil {
			t.Errorf("parseOptions(%v) accepted", args)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []options{
		{addr: ":0", maxConcurrent: -1, warm: 1},
		{addr: ":0", warm: 0},
	}
	for _, opt := range cases {
		if err := opt.validate(); err == nil {
			t.Errorf("validate(%+v) accepted", opt)
		}
	}
}

// serveUntilCanceled starts run on a free loopback port and returns the
// base URL once the ready channel names the address. stop cancels the
// context (the SIGTERM path), requires run to return nil, and returns
// everything run printed.
func serveUntilCanceled(t *testing.T) (base string, stop func() string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	opt := &options{addr: "127.0.0.1:0", warm: 1, ready: make(chan string, 1)}
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, opt, &out) }()
	select {
	case addr := <-opt.ready:
		base = "http://" + addr
	case err := <-done:
		cancel()
		t.Fatalf("run returned before serving: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	return base, func() string {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v on shutdown\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after context cancel")
		}
		return out.String()
	}
}

// postSolve runs one POST /v1/solve and decodes the result.
func postSolve(base, body string, res *serve.SolveResult) error {
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(res)
}

// cacheCounters scrapes serve.cache.{hits,misses} off /metrics.json.
func cacheCounters(t *testing.T, base string) (hits, misses int64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatalf("scraping /metrics.json: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}
	return snap.Counters["serve.cache.hits"], snap.Counters["serve.cache.misses"]
}

// TestRunSmoke is the whole binary end to end (`make serve-smoke`):
// server up, one cold and one identical cached sf10/p4 solve over HTTP,
// the cache counters asserted through /metrics.json, graceful shutdown.
func TestRunSmoke(t *testing.T) {
	base, stop := serveUntilCanceled(t)
	const body = `{"scenario":"sf10","pes":4}`

	// The registry is process-wide and counts since process start, so the
	// counters are asserted as deltas across the two solves.
	hits0, misses0 := cacheCounters(t, base)
	var cold, warm serve.SolveResult
	if err := postSolve(base, body, &cold); err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.CacheHit {
		t.Fatal("first solve reported cache_hit=true; expected a cold build")
	}
	if !cold.Converged || !cold.Certified {
		t.Fatalf("cold solve: converged=%v certified=%v (cert residual %.3g)",
			cold.Converged, cold.Certified, cold.CertResidual)
	}
	if err := postSolve(base, body, &warm); err != nil {
		t.Fatalf("cached solve: %v", err)
	}
	if !warm.CacheHit {
		t.Fatal("second identical solve reported cache_hit=false; expected a cache hit")
	}
	if warm.Fingerprints != cold.Fingerprints {
		t.Fatalf("cached solve served different artifacts: %+v vs %+v", warm.Fingerprints, cold.Fingerprints)
	}
	if warm.SolutionFP != cold.SolutionFP {
		t.Fatalf("cached solve diverged: solution fingerprint %x vs %x", warm.SolutionFP, cold.SolutionFP)
	}
	hits, misses := cacheCounters(t, base)
	if hits, misses = hits-hits0, misses-misses0; misses != 1 || hits < 1 {
		t.Fatalf("cache counters off: serve.cache.misses=%d (want 1), serve.cache.hits=%d (want >=1)", misses, hits)
	}
	t.Logf("sf10/p4 cold %.0fms (%d iters) cached %.0fms (%d iters), hits=%d misses=%d",
		cold.WallMS, cold.Iterations, warm.WallMS, warm.Iterations, hits, misses)
	if out := stop(); !strings.Contains(out, "shut down cleanly") {
		t.Fatalf("missing clean-shutdown line:\n%s", out)
	}
}

// TestRunServeAndShutdown runs the server mode: ready address, a live
// endpoint, then a context cancel (the SIGTERM path) must drain and
// return nil.
func TestRunServeAndShutdown(t *testing.T) {
	base, stop := serveUntilCanceled(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if out := stop(); !strings.Contains(out, "signal received, draining") || !strings.Contains(out, "shut down cleanly") {
		t.Fatalf("missing drain or clean-shutdown line:\n%s", out)
	}
}
