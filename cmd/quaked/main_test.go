package main

import (
	"context"
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
	if opt.addr != ":8090" || opt.warm != 1 || opt.smoke {
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
		{addr: ":0", warm: 1, smoke: true, smokePEs: 0},
	}
	for _, opt := range cases {
		if err := opt.validate(); err == nil {
			t.Errorf("validate(%+v) accepted", opt)
		}
	}
}

// TestRunSmoke is the whole binary end to end: server up, cold solve,
// cached solve, counters asserted, graceful shutdown — the same path
// `make serve-smoke` gates in CI.
func TestRunSmoke(t *testing.T) {
	opt := &options{
		addr: "127.0.0.1:0", warm: 1,
		smoke: true, smokeScenario: "sf10", smokePEs: 2,
	}
	var out strings.Builder
	if err := run(context.Background(), opt, &out); err != nil {
		t.Fatalf("run -smoke: %v\n%s", err, out.String())
	}
	for _, want := range []string{"smoke sf10/p2", "hits=1 misses=1", "smoke ok, shut down cleanly"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("smoke output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunChaos is the durability drill end to end — the body of `make
// serve-chaos`: a detached solve loses its worker and migrates, the whole
// server is torn down under it, and a second engine on the same journal
// replays the job and finishes it from its checkpoint with none lost.
func TestRunChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("the drill paces a real sf10 solve; skipped under -short")
	}
	opt := &options{
		addr: "127.0.0.1:0", warm: 1, journalDir: t.TempDir(),
		chaos: true, smokeScenario: "sf10", smokePEs: 4,
	}
	if err := opt.validate(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), opt, &out); err != nil {
		t.Fatalf("run -chaos: %v\n%s", err, out.String())
	}
	for _, want := range []string{"accepted on", "forcing restart mid-solve", "chaos ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunServeAndShutdown runs the server mode: ready address, live
// endpoints, one solve over HTTP, then a context cancel (the SIGTERM
// path) must drain and return nil.
func TestRunServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opt := &options{addr: "127.0.0.1:0", warm: 1, ready: make(chan string, 1)}
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- run(ctx, opt, &out) }()

	var addr string
	select {
	case addr = <-opt.ready:
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	var cold, warm serve.SolveResult
	if err := postSolve(base, `{"scenario":"sf10","pes":2}`, &cold); err != nil {
		t.Fatalf("cold solve over HTTP: %v", err)
	}
	if err := postSolve(base, `{"scenario":"sf10","pes":2}`, &warm); err != nil {
		t.Fatalf("warm solve over HTTP: %v", err)
	}
	if !cold.Converged || cold.CacheHit {
		t.Fatalf("cold solve: converged=%v cache_hit=%v", cold.Converged, cold.CacheHit)
	}
	if !warm.Converged || !warm.CacheHit {
		t.Fatalf("warm solve: converged=%v cache_hit=%v", warm.Converged, warm.CacheHit)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on shutdown\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown line:\n%s", out.String())
	}
}
