// Command quaked is the warm-pool simulation service: a long-running
// HTTP/JSON server over internal/serve that caches mesh, partition,
// schedule, and assembly artifacts per (scenario, p, method, nodesize)
// tuple and keeps persistent-PE Dist runtimes warm between requests, so
// repeat solves skip every setup stage and go straight to CG.
//
// Usage:
//
//	quaked                          # serve on :8090
//	quaked -addr :9000 -warm 2 -max-concurrent 4
//	quaked -journal /var/lib/quaked # durable jobs, replayed on restart
//
// The service exposes the full observability surface (Prometheus
// /metrics, /metrics.json, /flight, expvar, pprof) on the same port;
// see docs/SERVICE.md for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/serve"
)

// options is the validated CLI configuration, kept separate from flag
// parsing so tests can drive run() directly.
type options struct {
	addr            string
	maxConcurrent   int
	maxQueue        int
	warm            int
	maxPEs          int
	maxIter         int
	maxDeadline     time.Duration
	checkpointEvery int
	// journalDir makes jobs durable: accepted solves are journaled
	// there and an engine restart on the same directory replays them.
	journalDir string

	// ready, when non-nil, receives the bound address once the server
	// is up (non-blocking send). Tests use it to drive the endpoints.
	ready chan string
}

// parseOptions binds the flag set. Parse errors are returned after the
// FlagSet has printed usage to out.
func parseOptions(args []string, out io.Writer) (*options, error) {
	opt := &options{}
	fs := flag.NewFlagSet("quaked", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&opt.addr, "addr", ":8090", "listen address (':0' picks a free port)")
	fs.IntVar(&opt.maxConcurrent, "max-concurrent", 0, "solves executing at once (0 = GOMAXPROCS)")
	fs.IntVar(&opt.maxQueue, "max-queue", 0, "admitted solves waiting beyond the running ones (0 = default 8); overflow is refused with 429")
	fs.IntVar(&opt.warm, "warm", 1, "warm workers kept per cached artifact")
	fs.IntVar(&opt.maxPEs, "max-pes", 0, "per-request PE ceiling (0 = default 128)")
	fs.IntVar(&opt.maxIter, "max-iter", 0, "hard per-request iteration cap (0 = default 200000)")
	fs.DurationVar(&opt.maxDeadline, "max-deadline", 0, "per-request wall-budget ceiling, also the default budget (0 = 5m)")
	fs.IntVar(&opt.checkpointEvery, "checkpoint-every", 0, "solver checkpoint period in CG iterations (0 = default 10); also the progress-event and cancellation granularity")
	fs.StringVar(&opt.journalDir, "journal", "", "durable-job journal directory; a restart on the same directory replays accepted-but-unfinished jobs (empty = jobs are volatile)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(out, "quaked: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments")
	}
	return opt, nil
}

// validate enforces the cross-flag rules up front.
func (opt *options) validate() error {
	if opt.maxConcurrent < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0, got %d", opt.maxConcurrent)
	}
	if opt.warm < 1 {
		return fmt.Errorf("-warm must be at least 1, got %d", opt.warm)
	}
	return nil
}

func main() {
	opt, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2) // the FlagSet already printed the problem and usage
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "quaked:", err)
		fmt.Fprintln(os.Stderr, "run 'quaked -h' for usage")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quaked:", err)
		os.Exit(1)
	}
}

// run starts the engine and server and serves until ctx is canceled
// (SIGINT/SIGTERM). Shutdown is graceful: the listener closes first,
// in-flight requests drain, then the warm pools are released.
func run(ctx context.Context, opt *options, out io.Writer) error {
	// A service without telemetry is undebuggable; the export surface
	// shares the listener, so enable the registry unconditionally.
	obs.SetEnabled(true)
	eng, err := serve.NewEngine(serve.Config{
		MaxConcurrent:   opt.maxConcurrent,
		MaxQueue:        opt.maxQueue,
		WarmPool:        opt.warm,
		MaxPEs:          opt.maxPEs,
		MaxIter:         opt.maxIter,
		MaxDeadline:     opt.maxDeadline,
		CheckpointEvery: opt.checkpointEvery,
		JournalDir:      opt.journalDir,
	})
	if err != nil {
		return fmt.Errorf("-journal: %w", err)
	}
	defer eng.Close()

	addr, shutdown, err := export.ServeWith(opt.addr, serve.NewMux(eng))
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	fmt.Fprintf(out, "quaked: serving on http://%s/ (solves under /v1/, metrics under /metrics)\n", addr)
	if opt.ready != nil {
		select {
		case opt.ready <- addr:
		default:
		}
	}

	<-ctx.Done()
	fmt.Fprintln(out, "quaked: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "quaked: shut down cleanly")
	return nil
}
