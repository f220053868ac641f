package par

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestExchangeBytesMatchProfile asserts the telemetry cross-check at
// the heart of the observability layer: the bytes the runtime actually
// moves through each PE during one SMVP equal the partition profile's
// analytic C accounting (words sent + received, ×8 bytes/word), under
// the flat plan and under one whose leaders gather.
func TestExchangeBytesMatchProfile(t *testing.T) {
	f := newFixture(t)
	const p = 4
	d, pr := f.dist(t, p, partition.RCB)

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	x := make([]float64, 3*d.GlobalNodes)
	y := make([]float64, 3*d.GlobalNodes)
	for i := range x {
		x[i] = float64(i%5) * 0.5
	}

	peBytes := func(snap *obs.Snapshot, pe int) int64 {
		return snap.Counters[fmt.Sprintf("par.exchange.bytes.pe%d", pe)]
	}

	for _, kernel := range []struct {
		name   string
		nodeOf func(pe int32) int32
	}{
		{"flat", nil},
		{"node size 2", comm.ContiguousNodes(2)},
	} {
		if err := d.SetAggregation(kernel.nodeOf); err != nil {
			t.Fatal(err)
		}
		before := obs.Default.Snapshot()
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
		after := obs.Default.Snapshot()
		for pe := 0; pe < p; pe++ {
			got := peBytes(after, pe) - peBytes(before, pe)
			want := 8 * pr.C[pe]
			if got != want {
				t.Errorf("%s: PE %d exchanged %d bytes, profile C accounting says %d",
					kernel.name, pe, got, want)
			}
		}
		msgs := after.Counters["par.exchange.msgs"] - before.Counters["par.exchange.msgs"]
		if want := pr.TotalMessages(); msgs != want {
			t.Errorf("%s: %d messages observed, profile says %d", kernel.name, msgs, want)
		}
	}
}

// TestDistSimExchangeBytes checks the distributed integrator's per-step
// exchange accounting: steps × 8·C[i] bytes per PE.
func TestDistSimExchangeBytes(t *testing.T) {
	f := newFixture(t)
	const p, steps = 4, 5
	d, pr := f.dist(t, p, partition.RCB)
	sim, err := NewDistSim(d, f.sys.MassNode, nil)
	if err != nil {
		t.Fatal(err)
	}

	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	before := obs.Default.Snapshot()
	cfg := simCfg(f, steps)
	if _, err := sim.Run(f.m.Coords, cfg); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	for pe := 0; pe < p; pe++ {
		name := fmt.Sprintf("par.exchange.bytes.pe%d", pe)
		got := after.Counters[name] - before.Counters[name]
		want := steps * 8 * pr.C[pe]
		if got != want {
			t.Errorf("PE %d exchanged %d bytes over %d steps, want %d", pe, got, steps, want)
		}
	}
}
