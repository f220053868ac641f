package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkJSON is the repository's BENCHMARK.json: the benchmark's
// vocabulary and the bound by which each end-to-end metric may worsen
// before a change counts as a regression.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareFiles prints, for every workload × end-to-end metric, the
// medians of the untraced runs in result files A (the base) and B, B's
// ratio to A, and the verdict against the metric's bound: within-bound,
// regressed, or unresolved when either side's run-to-run spread is wider
// than the bound and the comparison therefore shows nothing. Traced runs
// with equal workload, seed and length must agree on every exact-count
// metric. It reports whether anything regressed, disagreed or failed.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (regressed bool, err error) {
	bench, err := readBenchmarkJSON(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}

	values := func(f *resultFile, workload, metric string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && !r.Trace && r.Workload == workload {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "spread", "bound", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-18s %12s %12s %8s %8s %6.2f  no runs on one side\n", wl.Name, m.Name, "-", "-", "-", "-", m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(va), spread(vb))
			verdict := "within-bound"
			switch {
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-20s %-18s %12.6g %12.6g %8.3f %8.3f %6.2f  %s (A n=%d, B n=%d, %s, base A = %.6g %s)\n",
				wl.Name, m.Name, ma, mb, mb/ma, noise, m.Bound, verdict, len(va), len(vb), m.Better+" is better", ma, m.Unit)
		}
	}

	// Exact counts: every traced run of the same requests must have
	// counted the same work.
	type key struct {
		workload string
		seed     int64
		seconds  float64
	}
	traced := map[key][]*record{}
	for _, r := range append(append([]*record(nil), a.Runs...), b.Runs...) {
		if r.Failed > 0 || !r.Correct {
			fmt.Fprintf(w, "FAILED OPS: %s seed %d: %d of %d\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			regressed = true
		}
		if r.Trace {
			k := key{r.Workload, r.Seed, r.Seconds}
			traced[k] = append(traced[k], r)
		}
	}
	keys := make([]key, 0, len(traced))
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	for _, k := range keys {
		runs := traced[k]
		differ := 0
		for _, name := range exactMetrics {
			for _, r := range runs[1:] {
				if r.get(name) != runs[0].get(name) {
					fmt.Fprintf(w, "EXACT COUNT DIFFERS: %s seed %d: %s = %v vs %v\n", k.workload, k.seed, name, runs[0].get(name), r.get(name))
					differ++
					break
				}
			}
		}
		if differ > 0 {
			regressed = true
		} else if len(runs) > 1 {
			fmt.Fprintf(w, "%-20s seed %d: %d exact-count metrics equal across %d traced runs\n", k.workload, k.seed, len(exactMetrics), len(runs))
		}
	}
	return regressed, nil
}
