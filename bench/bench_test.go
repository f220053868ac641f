package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// smokeSize shrinks every workload to sf10 at a loose tolerance, with
// the faults early enough to land inside the shorter solve.
var smokeSize = sizing{large: "sf10", tol: 1e-4, killLo: 5, killHi: 25, reviveAfter: 10}

func TestTailIsRankNMinus10(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		val, pct float64
	}{
		{0, 0, 0},
		{9, 5, 50},     // fewer than ten samples: nothing lies beyond anything
		{20, 10.5, 50}, // rank 10 of 20 does not reach past the median
		{21, 11, 100 * 11.0 / 21},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		val, pct := tail(asc(c.n))
		if val != c.val || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", c.n, val, pct, c.val, c.pct)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{4, 1, 2}); got != 1.5 {
		t.Errorf("spread = %v, want (4-1)/2", got)
	}
	if spread([]float64{3}) != 0 || median(nil) != 0 || mean(nil) != 0 || mean([]float64{1, 2}) != 1.5 {
		t.Error("degenerate inputs")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps a: 20..30 counts once
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past the parent: clipped
		{name: "grandchild", parent: 1, start: 12 * ms, end: 17 * ms},
	}
	want := []time.Duration{50 * ms, 15 * ms, 30 * ms, 30 * ms, 5 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}

	tr := newTracer()
	root := tr.begin(-1, 0, "bench", "root")
	kid := tr.begin(root, 0, "par", "kid")
	tr.end(kid)
	tr.end(root)
	tr.begin(root, 0, "par", "never closed")
	total, self := tr.durations("root")
	kidTotal, _ := tr.durations("kid")
	if len(total) != 1 || math.Abs(total[0]-self[0]-kidTotal[0]) > 1e-12 {
		t.Errorf("root %v self %v kid %v", total, self, kidTotal)
	}
	path := filepath.Join(t.TempDir(), "t.trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	raw, _ := os.ReadFile(path)
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 0.0 {
		t.Errorf("chrome trace: %v %+v", err, doc)
	}
}

// Same seed ⇒ byte-identical request list; another seed ⇒ another list.
func TestGeneratorsAreSeeded(t *testing.T) {
	list := func(w *workload, seed int64) string {
		var b bytes.Buffer
		b.Write(w.warmup(seed).body)
		ops := w.ops(seed)
		for i := 0; i < 60; i++ {
			o, err := ops(i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serve.DecodeSolveRequest(bytes.NewReader(o.body)); err != nil {
				t.Fatalf("%s op %d does not decode: %v", w.name, i, err)
			}
			b.Write(o.body)
		}
		return b.String()
	}
	for _, w := range workloads(fullSize) {
		if list(w, 1) != list(w, 1) {
			t.Errorf("%s: seed 1 gave two different request lists", w.name)
		}
		if list(w, 1) == list(w, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
	}
}

func TestColdMixIsThreeNewOneOld(t *testing.T) {
	ops := coldOps(7)
	var distinct []string
	seen := map[string]bool{}
	for i := 0; ; i++ {
		o, err := ops(i)
		if err != nil {
			if len(distinct) != len(coldSpace()) || !strings.Contains(err.Error(), "widen") {
				t.Errorf("list ended after %d of %d tuples: %v", len(distinct), len(coldSpace()), err)
			}
			return
		}
		key := o.tupleKey()
		switch {
		case o.rehit != (i%4 == 3):
			t.Fatalf("op %d: rehit = %v", i, o.rehit)
		case o.rehit && (o.wantHit != nil || key != distinct[i/4]):
			t.Fatalf("op %d re-references %s, want the unasserted tuple %s", i, key, distinct[i/4])
		case !o.rehit && (seen[key] || o.wantHit == nil || *o.wantHit):
			t.Fatalf("op %d sends %s as never seen (seen before: %v)", i, key, seen[key])
		case o.req.PEs > coldMaxPEs:
			t.Fatalf("op %d draws outside the space (the warm-up tuple lives there)", i)
		}
		if !o.rehit {
			seen[key] = true
			distinct = append(distinct, key)
		}
	}
}

func TestFaultedCyclesThreeRecoveries(t *testing.T) {
	w := workloads(fullSize)[3]
	ops := w.ops(3)
	for i := 0; i < 30; i++ {
		o, _ := ops(i)
		k := o.kill
		if k == nil || k.pe < 0 || k.pe >= 4 || k.revive != (i%3 == 1) || k.migrate != (i%3 == 2) {
			t.Fatalf("op %d: kill plan %+v", i, k)
		}
		if k.migrate != (o.req.Recovery == serve.RecoveryMigrate) || k.revive != strings.Contains(o.req.Faults, "revive") {
			t.Fatalf("op %d: request %s does not match plan %+v", i, o.body, k)
		}
	}
}

// The drift guard: BENCHMARK.json and the tables the bench prints from
// name the same workloads and metrics with the same units, within the
// contract's limits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] || (better != "lower" && better != "higher") {
			t.Errorf("%s %q (unit %q, better %q): bad or repeated name, unit or direction", kind, n, u, better)
		}
		seen[n] = true
		if units[n] != u {
			t.Errorf("%s %q has unit %q in BENCHMARK.json, %q in the bench", kind, n, u, units[n])
		}
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("too many workloads (%d), end-to-end (%d) or per-layer (%d) entries", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	ws := workloads(fullSize)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(b.Workloads), len(ws))
	}
	for i, w := range b.Workloads {
		if w.Name != ws[i].name || w.Why != ws[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q / %q differs from the bench's %q / %q", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the bench prints %d + %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better)
		if m.Name != endToEndMetrics[i].name || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, the bench prints %q", i, m, endToEndMetrics[i].name)
		}
	}
	for i, m := range b.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better)
		if m.Name != perLayerMetrics[i].name {
			t.Errorf("per_layer %d: %q, the bench prints %q", i, m.Name, perLayerMetrics[i].name)
		}
	}
	if s := b.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the contract needs setup_s in s, lower is better: %+v", s)
	}
	for _, n := range exactMetrics {
		if !seen[n] {
			t.Errorf("exact metric %q is not a per-layer metric", n)
		}
	}
	if strings.Join(b.Paths, ",") != "bench" || strings.Join(b.Command, " ") != "go run ./bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
}

func TestVerifyEnforcesEveryCheck(t *testing.T) {
	good := serve.SolveResult{Iterations: 10, Converged: true, Certified: true, CertResidual: 5e-8,
		CacheHit: true, Width: 4, SolutionFP: 7, Fingerprints: serve.Fingerprints{Key: 1, Mesh: 2}}
	plain := newOp(0, serve.SolveRequest{Scenario: "sf10", PEs: 4, Tol: 1e-8})
	plain.wantHit = &yes
	elastic := newOp(1, serve.SolveRequest{Scenario: "sf10", PEs: 4, Tol: 1e-8, Faults: "kill:pe=2,iter=30"})
	elastic.kill = &killPlan{pe: 2}
	revived := newOp(2, elastic.req)
	revived.kill = &killPlan{pe: 2, revive: true}
	migrated := newOp(3, elastic.req)
	migrated.kill = &killPlan{pe: 2, migrate: true}

	for _, c := range []struct {
		what   string
		op     *op
		status int
		edit   func(*serve.SolveResult)
		want   string // substring of the error; "" = must pass
	}{
		{"a good answer", plain, 200, func(*serve.SolveResult) {}, ""},
		{"a refusal", plain, 429, func(*serve.SolveResult) {}, "HTTP 429"},
		{"no convergence", plain, 200, func(r *serve.SolveResult) { r.Converged = false }, "not converged"},
		{"no certificate", plain, 200, func(r *serve.SolveResult) { r.Certified = false }, "not certified"},
		{"a loose certificate", plain, 200, func(r *serve.SolveResult) { r.CertResidual = 2e-7 }, "above 10·tol"},
		{"a cold build of a warm tuple", plain, 200, func(r *serve.SolveResult) { r.CacheHit = false }, "cache_hit"},
		{"new fingerprints for a known tuple", plain, 200, func(r *serve.SolveResult) { r.Fingerprints.Mesh = 9 }, "changed fingerprints"},
		{"a new solution to a known request", plain, 200, func(r *serve.SolveResult) { r.SolutionFP = 8 }, "different solution"},
		{"a shrink", elastic, 200, func(r *serve.SolveResult) { r.Width, r.Shrinks, r.DeadPEs = 3, 1, []int{2} }, ""},
		{"a shrink that kept its width", elastic, 200, func(r *serve.SolveResult) { r.Shrinks, r.DeadPEs = 1, []int{2} }, "width 4, want 3"},
		{"a shrink nobody counted", elastic, 200, func(r *serve.SolveResult) { r.Width, r.DeadPEs = 3, []int{2} }, "0 shrinks"},
		{"the wrong PE dying", elastic, 200, func(r *serve.SolveResult) { r.Width, r.Shrinks, r.DeadPEs = 3, 1, []int{1} }, "lacks the planned PE"},
		{"a shrink and regrow", revived, 200, func(r *serve.SolveResult) { r.Shrinks, r.Grows, r.DeadPEs = 1, 1, []int{2} }, ""},
		{"a migration", migrated, 200, func(r *serve.SolveResult) { r.Migrations = 1 }, ""},
		{"a migration nobody counted", migrated, 200, func(*serve.SolveResult) {}, "0 migrations"},
	} {
		ck := newChecker()
		var first serve.SolveResult
		body, _ := json.Marshal(good)
		if err := ck.verify(plain, http.StatusOK, body, &first); err != nil {
			t.Fatalf("the reference answer failed: %v", err)
		}
		res := good
		c.edit(&res)
		body, _ = json.Marshal(res)
		err := ck.verify(c.op, c.status, body, &serve.SolveResult{})
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: got error %v, want %q", c.what, err, c.want)
		}
	}
	if err := newChecker().verify(plain, 200, []byte("{"), &serve.SolveResult{}); err == nil {
		t.Error("a truncated body passed")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"workloads":[{"name":"w","why":""},{"name":"absent","why":""}],
		"end_to_end":[{"name":"solve_p50_ms","unit":"ms","better":"lower","bound":0.1},
		              {"name":"solves_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644)
	write := func(file string, trace bool, failed int, metric string, vals ...float64) string {
		path := filepath.Join(dir, file)
		for _, v := range vals {
			r := &record{Workload: "w", Seed: 1, Seconds: 20, Trace: trace, Correct: failed == 0, Attempted: 5, Failed: failed,
				Metrics: map[string]metricValue{metric: {v, units[metric]}}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", false, 0, "solve_p50_ms", 100, 101, 99)
	rate := write("rate.json", false, 0, "solves_per_s", 10, 10.1, 9.9)
	for _, c := range []struct {
		what      string
		a, b      string
		regressed bool
		say       string
	}{
		{"the same runs", base, base, false, "within-bound"},
		{"8 % slower", base, write("slow8.json", false, 0, "solve_p50_ms", 108, 107, 109), false, "within-bound"},
		{"20 % slower", base, write("slow20.json", false, 0, "solve_p50_ms", 120, 121, 119), true, "REGRESSED"},
		{"20 % faster", base, write("fast.json", false, 0, "solve_p50_ms", 80, 81, 79), false, "within-bound"},
		{"too noisy to tell", base, write("noisy.json", false, 0, "solve_p50_ms", 90, 120, 150), false, "unresolved"},
		{"20 % less throughput", rate, write("rate8.json", false, 0, "solves_per_s", 8, 8.1, 7.9), true, "REGRESSED"},
		{"failed requests", base, write("failed.json", false, 2, "solve_p50_ms", 100), true, "FAILED OPS"},
		{"equal counts", write("t1.json", true, 0, "solver.iterations", 272), write("t2.json", true, 0, "solver.iterations", 272), false, "metrics equal across 2 traced runs"},
		{"different counts", write("t3.json", true, 0, "solver.iterations", 272), write("t4.json", true, 0, "solver.iterations", 273), true, "EXACT COUNT DIFFERS"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, bench, c.a, c.b)
		if err != nil || regressed != c.regressed || !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: regressed = %v, err %v, want %v and %q in:\n%s", c.what, regressed, err, c.regressed, c.say, &out)
		}
		if !strings.Contains(out.String(), "no runs on one side") {
			t.Errorf("%s: the workload without runs was not reported:\n%s", c.what, &out)
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, bench, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing result file compared fine")
	}
	os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644)
	if _, err := compareFiles(&bytes.Buffer{}, filepath.Join(dir, "bad.json"), base, base); err == nil {
		t.Error("a broken BENCHMARK.json compared fine")
	}
}

func TestRecordRefusesUndeclaredAndIncomplete(t *testing.T) {
	r := &record{Workload: "w", Metrics: map[string]metricValue{}}
	r.set("setup_s", 1)
	if err := r.complete(); err == nil || !strings.Contains(err.Error(), "solve_p50_ms") {
		t.Errorf("a run with one of five metrics is complete: %v", err)
	}
	for _, bad := range []func(){
		func() { r.set("no.such.metric", 1) },
		func() { r.set("setup_s", math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("set accepted an undeclared metric or a NaN")
				}
			}()
			bad()
		}()
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil || len(line) != 4 {
		t.Errorf("contract line %s: %v", r.contractLine(), err)
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		say  string
	}{
		{[]string{"-workload", "nope"}, 1, "unknown workload"},
		{[]string{"-trace", "2"}, 1, "-trace 2"},
		{[]string{"-seconds", "0"}, 1, "-seconds 0"},
		{[]string{"stray"}, 1, "unexpected arguments"},
		{[]string{"-compare", "only-one.json"}, 1, "two result files"},
		{[]string{"-compare", "a.json", "b.json"}, 1, "a.json"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.say) || stdout.Len() > 0 {
			t.Errorf("bench %v: exit %d, stdout %q, stderr %q; want exit %d and %q", c.args, code, &stdout, &stderr, c.code, c.say)
		}
	}
}

// TestSmoke drives the real command against a real quaked child at
// smoke scale: every workload end to end, the durable and the faulted
// one traced as well, then -compare over what that wrote.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns quaked; skipped under -short")
	}
	dir := t.TempDir()
	smoke := runner{outDir: dir, setups: 1, minOps: 3, tracedOps: 3, shadowCap: 20, smvpReps: 5}
	bench := func(wantCode int, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := runAt(context.Background(), args, &stdout, &stderr, smokeSize, smoke); code != wantCode {
			t.Fatalf("bench %v: exit %d, want %d\n%s%s", args, code, wantCode, &stdout, &stderr)
		}
		return stdout.String()
	}
	lastLine := func(out string) (res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}) {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out)
		}
		return res
	}

	results := filepath.Join(dir, "smoke.json")
	out := bench(0, "-workload", "all", "-seconds", "0.001", "-seed", "5", "-out", results)
	for _, w := range workloads(smokeSize) {
		if !strings.Contains(out, w.name+" seed=5: ops_attempted 3, ops_failed 0") {
			t.Errorf("%s did not report three verified requests:\n%s", w.name, out)
		}
	}
	for _, d := range endToEndMetrics {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +[0-9.e+-]+ ` + regexp.QuoteMeta(d.unit) + `$`).MatchString(out) {
			t.Errorf("%s is not printed with its unit %s", d.name, d.unit)
		}
	}
	if res := lastLine(out); !res.Correct || res.Attempted != 3 || res.Failed != 0 || len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("end-to-end result line: %+v", res)
	}

	for _, w := range []string{"warm_small_durable", "faulted"} {
		out := bench(0, "-workload", w, "-trace", "1", "-seed", "5", "-out", results)
		res := lastLine(out)
		if !res.Correct || len(res.Metrics) != len(perLayerMetrics) {
			t.Fatalf("%s traced result line has %d metrics, want %d", w, len(res.Metrics), len(perLayerMetrics))
		}
		for _, d := range perLayerMetrics {
			if !strings.Contains(out, "  "+d.name+" ") || res.Metrics[d.name].Unit != d.unit {
				t.Errorf("%s: %s is not printed with its unit %s", w, d.name, d.unit)
			}
		}
		get := func(name string) float64 { return res.Metrics[name].Value }
		if get("http.samples") != 3 || get("serve.cache_hits") != 3 || get("serve.cache_misses") != 0 || get("solver.iterations") < 30 {
			t.Errorf("%s: samples %v hits %v misses %v iterations %v", w, get("http.samples"), get("serve.cache_hits"), get("serve.cache_misses"), get("solver.iterations"))
		}
		// How much the budget explains is a timing, and timings are not
		// asserted in a test that shares its host; that it is printed is.
		if get("budget.accounted_share") <= 0 || get("budget.request_ms") <= 0 || !strings.Contains(out, "unaccounted") {
			t.Errorf("%s: budget of a %v ms request accounts for %v of it", w, get("budget.request_ms"), get("budget.accounted_share"))
		}
		switch w {
		case "warm_small_durable":
			if get("serve.journal_records") < 9 || get("recover.ckpt_writes") < 3 || get("recover.ckpt_write_ms_total") <= 0 || get("fault.injected_kill") != 0 {
				t.Errorf("durable run: journal %v, checkpoints %v in %v ms, kills %v", get("serve.journal_records"),
					get("recover.ckpt_writes"), get("recover.ckpt_write_ms_total"), get("fault.injected_kill"))
			}
		case "faulted":
			if get("fault.injected_kill") != 3 || get("recover.shrinks") != 2 || get("recover.grows") != 1 || get("serve.job_migrations") != 1 || get("budget.recover_ms") <= 0 {
				t.Errorf("faulted run: kills %v shrinks %v grows %v migrations %v recover %v ms", get("fault.injected_kill"),
					get("recover.shrinks"), get("recover.grows"), get("serve.job_migrations"), get("budget.recover_ms"))
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w+".trace.json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w, err)
		}
	}

	f, err := readResults(results)
	if err != nil || len(f.Runs) != 6 || f.Runs[0].Env == nil || f.Runs[0].Env.NProc < 1 || f.Runs[0].Env.GoVersion == "" || f.Runs[0].Clients < 1 {
		t.Fatalf("result file: %v, %+v", err, f)
	}
	if out := bench(0, "-compare", results, results); strings.Count(out, "within-bound")+strings.Count(out, "unresolved") != 20 {
		t.Errorf("-compare did not judge 4 workloads × 5 metrics:\n%s", out)
	}

	// Nothing may outlive a run: no child, no journal or checkpoint
	// directory, only the built binary, the traces and the result file.
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}

	// A cancelled run cleans up and reports failure, not a result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := runAt(ctx, []string{"-workload", "faulted"}, &stdout, &stderr, smokeSize, smoke); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a cancelled run exited %d with output %q", code, &stdout)
	}
}

// A request quaked answers wrongly must fail the run: exit status 1,
// correct false, the op counted as failed — here a tolerance the solve
// cannot reach within its iteration budget.
func TestFailedCheckFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns quaked; skipped under -short")
	}
	dir := t.TempDir()
	bin, err := buildQuaked(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads(smokeSize)[0]
	good := w.ops
	w.ops = func(seed int64) func(int) (*op, error) {
		ops := good(seed)
		return func(i int) (*op, error) {
			o, err := ops(i)
			if i == 1 {
				o.req.MaxIters = 2
				o = newOp(i, o.req)
			}
			return o, err
		}
	}
	r := &runner{bin: bin, outDir: dir, log: &bytes.Buffer{}, setups: 1, minOps: 3}
	rec, err := r.endToEnd(context.Background(), w, 1, 0.001)
	if err == nil || rec == nil || rec.Correct || rec.Failed != 1 || rec.Attempted != 3 || !strings.Contains(err.Error(), "not converged") {
		t.Fatalf("record %+v, error %v", rec, err)
	}
}
