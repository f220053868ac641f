package par

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestPhaseAccumsPopulated asserts the per-PE phase accumulators and
// merged histograms fill during SMVP: one observation per PE per
// invocation.
func TestPhaseAccumsPopulated(t *testing.T) {
	f := newFixture(t)
	const p = 4
	d, _ := f.dist(t, p, partition.RCB)

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%7) * 0.25
	}

	before := obs.Default.Snapshot()
	const iters = 5
	for i := 0; i < iters; i++ {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}
	delta := obs.Default.Snapshot().Sub(before)

	for _, name := range []string{"par.phase.compute.ns", "par.phase.exchange.ns"} {
		as, found := delta.PEAccums[name]
		if !found {
			t.Fatalf("%s missing from snapshot", name)
		}
		if len(as.Count) < p {
			t.Fatalf("%s has %d slots, want >= %d", name, len(as.Count), p)
		}
		for pe := 0; pe < p; pe++ {
			if as.Count[pe] != iters {
				t.Errorf("%s PE%d count = %d, want %d", name, pe, as.Count[pe], iters)
			}
			if as.Sum[pe] <= 0 {
				t.Errorf("%s PE%d sum = %d, want > 0", name, pe, as.Sum[pe])
			}
			// Max is a process-lifetime high-water mark — Sub copies it
			// verbatim — so it cannot be bounded by this window's Sum when
			// earlier tests already observed a slow kernel.
			if as.Max[pe] <= 0 {
				t.Errorf("%s PE%d max = %d, want > 0", name, pe, as.Max[pe])
			}
		}
	}
	for _, name := range []string{"par.phase.compute.hist_ns", "par.phase.exchange.hist_ns"} {
		hs, found := delta.Histograms[name]
		if !found || hs.Count != int64(iters*p) {
			t.Errorf("%s count = %d (found=%v), want %d", name, hs.Count, found, iters*p)
		}
		if q := hs.Quantile(0.5); q <= 0 {
			t.Errorf("%s p50 = %g, want > 0", name, q)
		}
	}
}

// TestDistSimPhaseAccums asserts the explicit integrator records all
// three phases, including update.
func TestDistSimPhaseAccums(t *testing.T) {
	f := newFixture(t)
	const p = 4
	d, _ := f.dist(t, p, partition.RCB)

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	before := obs.Default.Snapshot()
	const steps = 6
	sim, err := NewDistSim(d, f.sys.MassNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(f.m.Coords, simCfg(f, steps)); err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)

	for _, name := range []string{
		"par.phase.compute.ns", "par.phase.exchange.ns", "par.phase.update.ns",
	} {
		as, found := delta.PEAccums[name]
		if !found {
			t.Fatalf("%s missing from snapshot", name)
		}
		for pe := 0; pe < p; pe++ {
			if as.Count[pe] != steps {
				t.Errorf("%s PE%d count = %d, want %d", name, pe, as.Count[pe], steps)
			}
		}
	}
}

// TestFlightDumpOnFault injects a kill and asserts the runtime dumps
// the flight ring: the dump must hold the phase spans leading up to the
// failure and the fault events themselves.
func TestFlightDumpOnFault(t *testing.T) {
	f := newFixture(t)
	const p = 4
	d, _ := f.dist(t, p, partition.RCB)

	path := filepath.Join(t.TempDir(), "fault.trace.json")
	obs.FlightRecorder.SetDumpPath(path)
	defer obs.FlightRecorder.SetDumpPath("")

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = 1
	}

	// A few healthy kernels first, so the ring holds spans.
	for i := 0; i < 3; i++ {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}

	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Kill, PE: 2, Iter: 2}}}
	if _, err := d.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	// Armed-kernel iter 1 is clean; iter 2 kills PE 2 and poisons the
	// Dist, which must trigger the auto-dump.
	if _, err := d.SMVP(y, x); err != nil {
		t.Fatalf("iter 1 should run clean: %v", err)
	}
	_, err := d.SMVP(y, x)
	var pf *PEFaultError
	if !errors.As(err, &pf) || pf.PE != 2 {
		t.Fatalf("iter 2 should fault on PE 2, got %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	var dump struct {
		Reason string `json:"reason"`
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			PE   int    `json:"pe"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if !strings.Contains(dump.Reason, "fault") {
		t.Errorf("dump reason = %q, want a fault reason", dump.Reason)
	}
	var spans, faults int
	var sawKill, sawPanic, sawPoison bool
	for _, e := range dump.Events {
		switch e.Kind {
		case "span":
			spans++
		case "fault":
			faults++
			switch e.Name {
			case "fault.injected.kill":
				sawKill = e.PE == 2 || sawKill
			case "par.pe.panic":
				sawPanic = e.PE == 2 || sawPanic
			case "par.barrier.poison":
				sawPoison = true
			}
		}
	}
	if spans == 0 {
		t.Error("dump holds no phase spans")
	}
	if !sawKill || !sawPanic || !sawPoison {
		t.Errorf("dump missing fault chain: kill=%v panic=%v poison=%v (faults=%d)",
			sawKill, sawPanic, sawPoison, faults)
	}
}
