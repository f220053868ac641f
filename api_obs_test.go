package quake_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	quake "repro"
)

// TestObservabilityFacade exercises the telemetry surface end to end
// through the public API: enable collection, run distributed kernels,
// snapshot, analyze the window, and serve the HTTP endpoints.
func TestObservabilityFacade(t *testing.T) {
	s, err := quake.ScenarioByName("sf10")
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := quake.PartitionMesh(m, 4, quake.RCB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := quake.Analyze(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := quake.NewDist(m, quake.SanFernando(), pt, pr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	quake.SetTelemetry(true)
	defer quake.SetTelemetry(false)

	before := quake.MetricsSnapshotNow()
	x := make([]float64, 3*m.NumNodes())
	y := make([]float64, len(x))
	for i := range x {
		x[i] = 1
	}
	const iters = 4
	for i := 0; i < iters; i++ {
		if _, err := d.SMVP(y, x); err != nil {
			t.Fatal(err)
		}
	}
	cur := quake.MetricsSnapshotNow()

	w, ok := quake.AnalyzeWindow(cur, before)
	if !ok || w.Iters != iters {
		t.Fatalf("window: ok=%v iters=%d, want %d", ok, w.Iters, iters)
	}
	app := quake.AppProperties{F: pr.Fmax(), Cmax: pr.Cmax(), Bmax: pr.Bmax()}
	mp := quake.T3E()
	rep := quake.AnalyzeExchange(w, quake.FlatExchange(app), mp.Tl, mp.Tw, 0, 0)
	if rep.Compute.Lambda < 1 || rep.Drift.PredictedTc <= 0 {
		t.Fatalf("report: λ=%g predicted=%g", rep.Compute.Lambda, rep.Drift.PredictedTc)
	}

	// The flight ring saw the kernels' phase spans.
	if len(quake.FlightEvents()) == 0 {
		t.Error("flight recorder is empty after distributed kernels")
	}

	// HTTP surface.
	addr, shutdown, err := quake.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "par_smvp_calls") {
		t.Errorf("/metrics: code=%d, missing par_smvp_calls", resp.StatusCode)
	}
}
