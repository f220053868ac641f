package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

// sample is one timed request.
type sample struct {
	op      *op
	latency time.Duration // request written → body decoded and verified
	res     serve.SolveResult
	bytes   int   // response body size
	err     error // non-nil: the op failed and carries no latency
}

// checker holds what must agree across the requests of one run: equal
// tuples must report equal artifact fingerprints, equal fault-free
// requests equal solutions.
type checker struct {
	mu        sync.Mutex
	tuples    map[string]serve.Fingerprints
	solutions map[string]uint64
}

func newChecker() *checker {
	return &checker{tuples: map[string]serve.Fingerprints{}, solutions: map[string]uint64{}}
}

// verify applies every per-op check of the benchmark to one answer.
func (c *checker) verify(o *op, status int, body []byte, res *serve.SolveResult) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, res); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	tol := o.req.Tol
	switch {
	case !res.Converged:
		return fmt.Errorf("not converged after %d iterations (residual %g)", res.Iterations, res.Residual)
	case !res.Certified:
		return fmt.Errorf("answer not certified")
	case res.CertResidual > 10*tol:
		return fmt.Errorf("certified residual %g above 10·tol = %g", res.CertResidual, 10*tol)
	case o.wantHit != nil && res.CacheHit != *o.wantHit:
		return fmt.Errorf("cache_hit = %v, want %v", res.CacheHit, *o.wantHit)
	}
	if k := o.kill; k != nil {
		wantWidth := o.req.PEs
		if !k.migrate && !k.revive {
			wantWidth--
		}
		switch {
		case res.Width != wantWidth:
			return fmt.Errorf("finished at width %d, want %d", res.Width, wantWidth)
		case k.migrate && res.Migrations < 1:
			return fmt.Errorf("migrate plan reported %d migrations", res.Migrations)
		case !k.migrate && res.Shrinks < 1:
			return fmt.Errorf("elastic plan reported %d shrinks", res.Shrinks)
		case !k.migrate && !slices.Contains(res.DeadPEs, k.pe):
			return fmt.Errorf("dead_pes %v lacks the planned PE %d", res.DeadPEs, k.pe)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	tuple := o.tupleKey()
	if fp, seen := c.tuples[tuple]; seen && fp != res.Fingerprints {
		return fmt.Errorf("tuple %s changed fingerprints: %+v then %+v", tuple, fp, res.Fingerprints)
	}
	c.tuples[tuple] = res.Fingerprints
	if o.kill == nil {
		if fp, seen := c.solutions[string(o.body)]; seen && fp != res.SolutionFP {
			return fmt.Errorf("equal request, different solution: %x then %x", fp, res.SolutionFP)
		}
		c.solutions[string(o.body)] = res.SolutionFP
	}
	return nil
}

// solve sends one request and verifies the answer. With a tracer the
// request is also recorded as a client-side span on its own track.
func (c *child) solve(ctx context.Context, ck *checker, tr *tracer, o *op) sample {
	s := sample{op: o}
	if tr != nil && !o.untraced {
		id := tr.begin(-1, o.index+1, "http", "http.solve")
		defer tr.end(id)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/solve", bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err
		return s
	}
	s.bytes = len(body)
	s.err = ck.verify(o, resp.StatusCode, body, &s.res)
	s.latency = time.Since(start)
	return s
}

// window is the closed loop: each of the clients sends its next request
// only when the previous answer has been verified, until stop — asked
// with the number of requests issued so far and the time since the
// window opened — ends it. onDone, when non-nil, runs after each
// completed request with the running count. The returned wall time ends
// with the last answer, so every request lies wholly inside it.
func (c *child) window(ctx context.Context, ck *checker, tr *tracer, ops func(int) (*op, error), clients int,
	stop func(issued int, elapsed time.Duration) bool, onDone func(done int)) ([]sample, time.Duration) {

	gen := &generator{ops: ops}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				o, err := gen.take(func(issued int) bool { return stop(issued, time.Since(start)) })
				if o == nil && err == nil {
					return
				}
				var s sample
				if err != nil {
					s.err = err
				} else {
					s = c.solve(ctx, ck, tr, o)
				}
				mu.Lock()
				samples = append(samples, s)
				done := len(samples)
				if onDone != nil {
					onDone(done)
				}
				mu.Unlock()
				if err != nil {
					return // the request list itself is exhausted
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// latenciesMS returns the latencies of the verified samples and the
// number that failed.
func latenciesMS(samples []sample) (ms []float64, failed int) {
	for _, s := range samples {
		if s.err != nil {
			failed++
			continue
		}
		ms = append(ms, s.latency.Seconds()*1000)
	}
	return ms, failed
}

// runner holds what one bench invocation shares between workloads.
type runner struct {
	bin    string // the built quaked
	outDir string
	log    io.Writer // progress and tables (standard output)
	// setups is how often set-up is repeated for setup_s (median).
	setups int
	// minOps, when positive, replaces the workload's rssMark as the
	// fewest requests a timed window sends (the smoke tests use 3).
	minOps int
	// tracedOps, when positive, replaces the rate-derived request count
	// of a traced run.
	tracedOps int
	// shadowCap bounds the CG iterations of the shadow pipeline's own
	// solves; smvpReps is how many kernel calls it times.
	shadowCap, smvpReps int
}

func (r *runner) clientsFor(w *workload) int {
	return min(w.clients, runtime.NumCPU())
}

// setup brings quaked up for the workload in a fresh scratch directory
// and returns it with the time that took: spawn → /healthz → warm-up
// answered.
func (r *runner) setup(ctx context.Context, w *workload, seed int64) (*child, string, time.Duration, error) {
	dir, err := os.MkdirTemp(r.outDir, w.name+"-*")
	if err != nil {
		return nil, "", 0, err
	}
	clients := r.clientsFor(w)
	start := time.Now()
	var flags []string
	if w.flags != nil {
		flags = w.flags(dir)
	}
	c, err := startChild(ctx, r.bin, flags, clients)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", 0, err
	}
	ck := newChecker()
	warm := w.warmup(seed)
	first := c.solve(ctx, ck, nil, warm)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() { errs <- c.solve(ctx, ck, nil, warm).err }()
	}
	err = first.err
	for i := 0; i < clients; i++ {
		if e := <-errs; err == nil {
			err = e
		}
	}
	took := time.Since(start)
	if err != nil {
		tail := c.log.tail()
		c.stop()
		os.RemoveAll(dir)
		return nil, "", 0, fmt.Errorf("%s warm-up: %w\n%s", w.name, err, tail)
	}
	return c, dir, took, nil
}

// endToEnd runs the workload untraced for the given time and returns
// the five end-to-end metrics.
func (r *runner) endToEnd(ctx context.Context, w *workload, seed int64, seconds float64) (*record, error) {
	var (
		c      *child
		dir    string
		setupS []float64
	)
	for i := 0; i < r.setups; i++ {
		if c != nil {
			c.stop()
			os.RemoveAll(dir)
		}
		var took time.Duration
		var err error
		if c, dir, took, err = r.setup(ctx, w, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer os.RemoveAll(dir)
	defer c.stop()

	minOps := w.rssMark
	if r.minOps > 0 {
		minOps = r.minOps
	}
	user0, sys0, err := c.procCPU()
	if err != nil {
		return nil, err
	}
	var peakMB float64
	samples, wall := c.window(ctx, newChecker(), nil, w.ops(seed), r.clientsFor(w),
		func(issued int, elapsed time.Duration) bool {
			return issued >= minOps && elapsed.Seconds() >= seconds
		},
		func(done int) {
			if done == minOps {
				peakMB, _, _ = c.procMem() // a failure leaves 0, refused below
			}
		})
	user1, sys1, err := c.procCPU()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ms, failed := latenciesMS(samples)
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Clients: r.clientsFor(w),
		Attempted: len(samples), Failed: failed, Samples: len(ms), Metrics: map[string]metricValue{}}
	if len(ms) == 0 || peakMB == 0 {
		return rec, firstError(samples, fmt.Errorf("%s: no verified request or no RSS reading", w.name))
	}
	rec.set("setup_s", median(setupS))
	rec.set("solve_p50_ms", median(ms))
	rec.set("solves_per_s", float64(len(ms))/wall.Seconds())
	rec.set("cpu_ms_per_solve", 1000*(user1-user0+sys1-sys0)/float64(len(ms)))
	rec.set("peak_rss_mb", peakMB)
	rec.Correct = failed == 0
	return rec, firstError(samples, nil)
}

// firstError reports the first failed sample, so a red run says why.
func firstError(samples []sample, fallback error) error {
	for _, s := range samples {
		if s.err != nil {
			if s.op == nil {
				return s.err
			}
			return fmt.Errorf("request %d (%s): %w", s.op.index, s.op.body, s.err)
		}
	}
	return fallback
}
