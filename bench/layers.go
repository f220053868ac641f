package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// traced runs the workload with the per-layer instruments on and
// returns every per-layer metric. Three sources feed it: the delta of
// quaked's own /metrics.json, /debug/vars and /proc figures over the
// traced window (S, OS), the fields of the solve responses (R), and the
// shadow pipeline's spans (P). Its request count is fixed — rate ×
// seconds — rather than timed, so that every count it reports repeats
// exactly. Every controlEvery-th request is sent with the client-side
// tracing off; the difference between the two groups' medians is the
// tracing overhead.
func (r *runner) traced(ctx context.Context, w *workload, seed int64, seconds float64) (*record, error) {
	c, dir, _, err := r.setup(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer c.stop()

	clients := r.clientsFor(w)
	nOps := r.tracedOps
	if nOps <= 0 {
		nOps = max(2*controlEvery, int(math.Round(w.rate*seconds)))
	}
	ops := w.ops(seed)
	tr := newTracer()
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	samples, wall := c.window(ctx, newChecker(), tr,
		func(i int) (*op, error) {
			o, err := ops(i)
			if o != nil {
				o.untraced = i%controlEvery == 0
			}
			return o, err
		},
		clients, func(issued int, _ time.Duration) bool { return issued >= nOps }, nil)
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.stop() // the shadow pipeline gets the host to itself

	ms, failed := latenciesMS(samples)
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: true, Clients: clients,
		Attempted: len(samples), Failed: failed, Samples: len(ms), Metrics: map[string]metricValue{}}
	if len(ms) == 0 {
		return rec, firstError(samples, fmt.Errorf("%s: no verified request", w.name))
	}

	p, err := r.shadow(ctx, tr, w, dir)
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(r.outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}

	// R: the responses.
	n := float64(len(ms))
	var wallMS, overheadMS, bytes, iters, iterUS []float64
	var tracedMS, controlMS []float64
	var rehits, rehitMisses float64
	firstIters := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if s.op.index == 0 {
			firstIters = s.res.Iterations
		}
		if s.op.untraced {
			controlMS = append(controlMS, s.latency.Seconds()*1000)
		} else {
			tracedMS = append(tracedMS, s.latency.Seconds()*1000)
		}
		wallMS = append(wallMS, s.res.WallMS)
		overheadMS = append(overheadMS, s.latency.Seconds()*1000-s.res.WallMS)
		bytes = append(bytes, float64(s.bytes))
		iters = append(iters, float64(s.res.Iterations))
		iterUS = append(iterUS, 1000*s.res.WallMS/float64(max(s.res.Iterations, 1)))
		if s.op.rehit {
			rehits++
			if !s.res.CacheHit {
				rehitMisses++
			}
		}
	}
	tailMS, tailPct := tail(ms)
	rec.set("http.solve_tail_ms", tailMS)
	rec.set("http.solve_tail_pct", tailPct)
	rec.set("http.samples", n)
	rec.set("http.overhead_ms", median(overheadMS))
	rec.set("http.response_bytes", median(bytes))
	rec.set("serve.rehit_miss_share", ratio(rehitMisses, rehits))
	rec.set("solver.iterations", float64(firstIters))
	rec.set("solver.iter_us", median(iterUS))
	rec.set("trace.overhead_share", ratio(median(tracedMS)-median(controlMS), median(controlMS)))

	// S and OS: what quaked and the kernel counted over the window.
	counter := func(name string) float64 { return float64(after.obs.Counters[name] - before.obs.Counters[name]) }
	prefixed := func(prefix string) float64 {
		var sum int64
		for name, v := range after.obs.Counters {
			if strings.HasPrefix(name, prefix) {
				sum += v - before.obs.Counters[name]
			}
		}
		return float64(sum)
	}
	accumMS := func(name string) float64 {
		var sum int64
		prev := before.obs.PEAccums[name].Sum
		for pe, v := range after.obs.PEAccums[name].Sum {
			sum += v
			if pe < len(prev) {
				sum -= prev[pe]
			}
		}
		return float64(sum) / 1e6
	}
	calls := counter("par.smvp.calls")
	misses := counter("serve.cache.misses")
	for name, source := range map[string]string{
		"serve.cache_hits":      "serve.cache.hits",
		"serve.cache_misses":    "serve.cache.misses",
		"serve.pool_spawns":     "serve.pool.spawns",
		"serve.pool_reuses":     "serve.pool.reuses",
		"serve.pool_discards":   "serve.pool.discards",
		"serve.admit_rejected":  "serve.admit.rejected",
		"serve.job_migrations":  "serve.job.migrations",
		"serve.job_iters_saved": "serve.job.resumed_iters_saved",
		"serve.journal_records": "serve.job.journal.records",
		"par.smvp_calls":        "par.smvp.calls",
		"recover.ckpt_writes":   "recover.checkpoint.writes",
		"recover.shrinks":       "recover.shrinks",
		"recover.grows":         "recover.grows",
		"recover.resumes":       "recover.resumes",
		"fault.injected_kill":   "fault.injected.kill",
	} {
		rec.set(name, counter(source))
	}
	rec.set("serve.journal_bytes", after.obs.Gauges["serve.job.journal.bytes"]-before.obs.Gauges["serve.job.journal.bytes"])
	rec.set("serve.mb_per_key", ratio(after.rssMB-before.rssMB, misses))
	rec.set("par.exchange_bytes_per_smvp", ratio(prefixed("par.exchange.bytes.pe"), calls))
	rec.set("par.exchange_msgs_per_smvp", ratio(counter("par.exchange.msgs"), calls))
	rec.set("par.phase_compute_ms", accumMS("par.phase.compute.ns"))
	rec.set("par.phase_exchange_ms", accumMS("par.phase.exchange.ns"))
	ckptMS := float64(after.obs.Histograms["recover.checkpoint.duration_us"].Sum-
		before.obs.Histograms["recover.checkpoint.duration_us"].Sum) / 1000
	rec.set("recover.ckpt_write_ms_total", ckptMS)
	rec.set("proc.cpu_user_s", after.cpuUser-before.cpuUser)
	rec.set("proc.cpu_sys_s", after.cpuSys-before.cpuSys)
	rec.set("proc.alloc_mb_per_solve", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6/n)
	rec.set("proc.mallocs_per_solve", float64(after.mem.Mallocs-before.mem.Mallocs)/n)
	rec.set("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	rec.set("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)

	// P: the shadow pipeline, its solver costs scaled from per iteration
	// to the iteration count of a median response.
	itersPerSolve := median(iters)
	for name, v := range p {
		switch name {
		case "solver.cg_ms", "solver.apply_ms", "solver.vector_ms":
			v *= itersPerSolve
		}
		rec.set(name, v)
	}

	meanMS := mean(ms)
	rows := budgetRows(p, func(name string) float64 { return counter(name) / n }, mean(wallMS), ckptMS/n)
	groups := map[string]float64{}
	var accounted float64
	for _, row := range rows {
		groups[row.group] += row.ms
		accounted += row.ms
	}
	rec.set("budget.request_ms", meanMS)
	for _, g := range []string{"serve", "build", "par", "solver", "recover", "regress"} {
		rec.set("budget."+g+"_ms", groups[g])
	}
	rec.set("budget.unaccounted_ms", meanMS-accounted)
	rec.set("budget.accounted_share", accounted/meanMS)
	rec.Correct = rec.Failed == 0

	fmt.Fprintf(r.log, "%s: time budget of one mean request (%.3f ms; median %.3f ms; %d requests in %.1f s, iterations/solve %.0f)\n",
		w.name, meanMS, median(ms), len(ms), wall.Seconds(), itersPerSolve)
	for _, row := range rows {
		fmt.Fprintf(r.log, "  %-8s %-24s %10.3f ms %6.1f %%\n", row.group, row.what, row.ms, 100*row.ms/meanMS)
	}
	fmt.Fprintf(r.log, "  %-8s %-24s %10.3f ms %6.1f %%  (admission, job bookkeeping, encode, loopback, GC: not visible from outside)\n",
		"", "unaccounted", meanMS-accounted, 100*(meanMS-accounted)/meanMS)
	return rec, firstError(samples, nil)
}

// controlEvery picks the untraced control requests of a traced window.
// Five is coprime to the period of every workload's request mix (6, 4
// and 3), so the control group sees the same mix as the rest.
const controlEvery = 5

type budgetRow struct {
	group, what string
	ms          float64
}

// budgetRows is the time budget of one mean request: where, by every
// measurement the bench has, the time between writing the request and
// verifying the answer goes. p holds the shadow pipeline's unit costs,
// perReq a quaked counter's delta per request (counts are window totals,
// so the request they describe is the mean one), wallMS the mean
// server-side wall_ms and checkpointMS the time quaked itself measured
// in durable checkpoint writes, per request.
func budgetRows(p map[string]float64, perReq func(counter string) float64, wallMS, checkpointMS float64) []budgetRow {
	// Inside wall_ms: durable checkpoints, elastic rebuilds and pool
	// respawns (counted by quaked, priced by the shadow); what remains
	// is CG, split by the shadow's shares.
	misses := perReq("serve.cache.misses")
	shrink := perReq("recover.shrinks") * p["recover.shrink_ms"]
	grow := perReq("recover.grows") * p["recover.grow_ms"]
	respawn := (perReq("serve.pool.spawns") - misses) * p["par.newdist_ms"]
	cg := max(0, wallMS-checkpointMS-shrink-grow-respawn)
	apply := cg * p["solver.apply_share"]
	compute := apply * ratio(p["par.smvp_compute_us"], p["par.smvp_us"])
	exchange := apply * ratio(p["par.smvp_exchange_us"], p["par.smvp_us"])
	// Outside it: the journal's part of the durable overhead (the rest
	// of that overhead is the checkpoints above), the build of a miss,
	// decode, certify, the solution fingerprint.
	journal := 0.0
	if perReq("serve.job.journal.records") > 0 {
		journal = max(0, p["serve.durable_overhead_ms"]-perReq("recover.checkpoint.writes")*p["recover.ckpt_save_us"]/1000)
	}
	return []budgetRow{
		{"serve", "decode", p["serve.decode_us"] / 1000},
		{"serve", "journal appends", journal},
		{"serve", "certify", p["serve.certify_ms"]},
		{"build", "mesh", perReq("mesh.generate.calls") * p["mesh.build_ms"]},
		{"build", "partition + analyze", misses * (p["partition.partition_ms"] + p["partition.analyze_ms"])},
		{"build", "comm schedule", misses * p["comm.schedule_ms"]},
		{"build", "fem assemble", misses * p["fem.assemble_ms"]},
		{"build", "regress fingerprints", misses * p["regress.fingerprint_ms"]},
		{"build", "recover MeshID", misses * p["recover.mesh_id_ms"]},
		{"build", "par NewDist", misses * p["par.newdist_ms"]},
		{"par", "SMVP compute", compute},
		{"par", "SMVP exchange", exchange},
		{"par", "SMVP dispatch + shift", apply - compute - exchange},
		{"solver", "CG vector work", cg - apply},
		{"recover", "durable checkpoints", checkpointMS},
		{"recover", "shrink", shrink},
		{"recover", "grow", grow},
		{"recover", "pool respawn", respawn},
		{"regress", "solution fingerprint", p["regress.vector_us"] / 1000},
	}
}

// ratio is a/b, 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
