package export

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	f()
}

func TestWritePrometheus(t *testing.T) {
	withEnabled(t, func() {
		r := obs.NewRegistry()
		r.Counter("solver.cg.iterations").Add(12)
		r.Counter("par.exchange.bytes.pe0").Add(100)
		r.Counter("par.exchange.bytes.pe1").Add(200)
		r.Gauge("solver.cg.residual").Set(0.5)
		h := r.Histogram("par.exchange.msg_bytes")
		h.Observe(3)
		h.Observe(100)
		a := r.PEAccum("par.phase.compute.ns", 2)
		a.Observe(0, 50)
		a.Observe(1, 70)

		var b strings.Builder
		WritePrometheus(&b, r.Snapshot())
		out := b.String()

		for _, want := range []string{
			"# TYPE solver_cg_iterations counter",
			"solver_cg_iterations 12",
			// .pe<i> suffixes collapse into one metric with pe labels.
			"# TYPE par_exchange_bytes counter",
			`par_exchange_bytes{pe="0"} 100`,
			`par_exchange_bytes{pe="1"} 200`,
			"# TYPE solver_cg_residual gauge",
			"solver_cg_residual 0.5",
			"# TYPE par_exchange_msg_bytes histogram",
			`par_exchange_msg_bytes_bucket{le="+Inf"} 2`,
			"par_exchange_msg_bytes_sum 103",
			"par_exchange_msg_bytes_count 2",
			"par_exchange_msg_bytes_max 100",
			`par_phase_compute_ns_sum{pe="0"} 50`,
			`par_phase_compute_ns_sum{pe="1"} 70`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("prometheus output missing %q\n---\n%s", want, out)
			}
		}
		// Buckets must be cumulative: value 3 lands below value 100's
		// bucket, so the later bucket's count includes the earlier one.
		if !strings.Contains(out, `par_exchange_msg_bytes_bucket{le="128"} 2`) {
			t.Errorf("cumulative bucket missing\n---\n%s", out)
		}
	})
}

func TestSplitPELabel(t *testing.T) {
	cases := []struct {
		in, base, pe string
	}{
		{"par.exchange.bytes.pe7", "par.exchange.bytes", "7"},
		{"par.exchange.bytes.pe12", "par.exchange.bytes", "12"},
		{"solver.cg.iterations", "solver.cg.iterations", ""},
		{"weird.pe", "weird.pe", ""},
		{"weird.pex3", "weird.pex3", ""},
	}
	for _, c := range cases {
		base, pe := splitPELabel(c.in)
		if base != c.base || pe != c.pe {
			t.Errorf("splitPELabel(%q) = %q,%q want %q,%q", c.in, base, pe, c.base, c.pe)
		}
	}
}

func TestPromName(t *testing.T) {
	if got := promName("par.smvp.calls"); got != "par_smvp_calls" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("9lives"); got != "_9lives" {
		t.Fatalf("promName leading digit = %q", got)
	}
}

func TestMuxEndpoints(t *testing.T) {
	withEnabled(t, func() {
		// The registry outlives the test (-count=2 runs it twice in one
		// process), so the expected value is read back, not assumed.
		hits := obs.GetCounter("export.test.hits")
		hits.Add(3)
		want := hits.Value()
		obs.RecordFlight(obs.FlightSpan, "export.test.span", 0, 1, 0)

		srv := httptest.NewServer(NewMux(nil, nil))
		defer srv.Close()

		get := func(path string) (int, string) {
			t.Helper()
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}

		if code, body := get("/metrics"); code != 200 ||
			!strings.Contains(body, fmt.Sprintf("export_test_hits %d\n", want)) {
			t.Errorf("/metrics: code=%d body=%q", code, body)
		}
		if code, body := get("/metrics.json"); code != 200 {
			t.Errorf("/metrics.json: code=%d", code)
		} else {
			var s obs.Snapshot
			if err := json.Unmarshal([]byte(body), &s); err != nil {
				t.Errorf("/metrics.json not a snapshot: %v", err)
			} else if s.Counters["export.test.hits"] != want {
				t.Errorf("/metrics.json counter = %d, want %d", s.Counters["export.test.hits"], want)
			}
		}
		if code, body := get("/debug/vars"); code != 200 ||
			!strings.Contains(body, `"obs"`) {
			t.Errorf("/debug/vars: code=%d missing obs key", code)
		}
		if code, body := get("/flight"); code != 200 ||
			!strings.Contains(body, "export.test.span") {
			t.Errorf("/flight: code=%d body missing span", code)
		}
		if code, _ := get("/debug/pprof/"); code != 200 {
			t.Errorf("/debug/pprof/: code=%d", code)
		}
		if code, _ := get("/debug/pprof/cmdline"); code != 200 {
			t.Errorf("/debug/pprof/cmdline: code=%d", code)
		}
		if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
			t.Errorf("/: code=%d", code)
		}
		if code, _ := get("/nonexistent"); code != 404 {
			t.Errorf("/nonexistent: code=%d, want 404", code)
		}
	})
}

func TestServe(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics via Serve: %d", resp.StatusCode)
	}
}

// TestServeWithGracefulDrain pins the shutdown ordering: requests
// already in flight on /metrics and /flight when shutdown begins must
// complete with 200 before the shutdown call returns. The middleware
// holds each handler mid-request until the test observes that shutdown
// has started.
func TestServeWithGracefulDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	entered := make(chan string, 2)
	release := make(chan struct{})
	inner := NewMux(nil, nil)
	held := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- r.URL.Path
		<-release
		inner.ServeHTTP(w, r)
	})
	addr, shutdown, err := ServeWith("127.0.0.1:0", held)
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		path string
		code int
		err  error
	}
	replies := make(chan reply, 2)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, path := range []string{"/metrics", "/flight"} {
		go func(path string) {
			resp, err := client.Get("http://" + addr + path)
			if err != nil {
				replies <- reply{path, 0, err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			replies <- reply{path, resp.StatusCode, nil}
		}(path)
	}
	<-entered
	<-entered // both requests are now in flight, held mid-handler

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- shutdown(ctx)
	}()

	// Shutdown must wait for the held requests, not kill them.
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) while two requests were still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatalf("in-flight %s was dropped during shutdown: %v", r.path, r.err)
		}
		if r.code != 200 {
			t.Fatalf("in-flight %s answered %d after drain, want 200", r.path, r.code)
		}
	}

	// New connections are refused once the listener is down.
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("request after shutdown unexpectedly succeeded")
	}
}
