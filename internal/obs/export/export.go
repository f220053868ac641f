// Package export publishes the observability registry over HTTP so a
// long-running solve can be inspected live: expvar at /debug/vars, a
// dependency-free Prometheus text endpoint at /metrics, an indented
// JSON snapshot at /metrics.json, the flight-recorder ring at /flight,
// and net/http/pprof under /debug/pprof/. It is the substrate the
// planned quaked service will mount; today quakesim and quakerepro
// expose it behind a -http flag.
package export

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"repro/internal/obs"
)

// NewMux returns an http.ServeMux exposing the registry and flight
// recorder. Either argument may be nil to default to the process-wide
// instances.
func NewMux(r *obs.Registry, f *obs.Flight) *http.ServeMux {
	if r == nil {
		r = obs.Default
	}
	if f == nil {
		f = obs.FlightRecorder
	}
	obs.PublishExpvar()
	// An enabled registry never serves an empty exposition: a scrape
	// that beats the first pipeline stage's registrations still sees one
	// series, so "no metrics" always means "telemetry is off".
	up := r.Gauge("obs.up")

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, indexPage)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		up.Set(1)
		WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		up.Set(1)
		r.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f.WriteJSON(w, "http request")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

const indexPage = `quake observability endpoints:
  /metrics        Prometheus text format
  /metrics.json   JSON registry snapshot
  /flight         flight-recorder ring (JSON)
  /debug/vars     expvar (snapshot under key "obs")
  /debug/pprof/   runtime profiles
`

// Serve starts an HTTP server for the default registry and flight
// recorder on addr (":0" picks a free port). It returns the bound
// address and a shutdown function; the server runs until shut down.
func Serve(addr string) (string, func(context.Context) error, error) {
	return ServeWith(addr, NewMux(nil, nil))
}

// ServeWith starts an HTTP server for an arbitrary handler on addr
// (":0" picks a free port). The returned shutdown function stops
// accepting connections, waits for in-flight requests to drain (bounded
// by its context), and surfaces any earlier serve-loop failure that the
// old fire-and-forget goroutine used to swallow.
func ServeWith(addr string, h http.Handler) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	shutdown := func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		// Serve has returned by now (Shutdown closes the listener
		// first); drain its error so a bind- or accept-loop failure is
		// not lost.
		if serr := <-errc; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		return err
	}
	return ln.Addr().String(), shutdown, nil
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), with no external dependencies. Dots in
// metric names become underscores; a ".pe<i>" suffix becomes a
// pe="<i>" label so per-PE series group under one metric name.
// Histograms emit the conventional cumulative _bucket/_sum/_count
// series plus a non-standard _max gauge; per-PE accumulators emit
// _count/_sum/_max with pe labels.
func WritePrometheus(w io.Writer, s *obs.Snapshot) {
	type labeled struct {
		pe  string // "" when unlabeled
		val int64
	}
	grouped := make(map[string][]labeled)
	for name, v := range s.Counters {
		base, pe := splitPELabel(name)
		grouped[base] = append(grouped[base], labeled{pe, v})
	}
	for _, base := range sortedKeys(grouped) {
		series := grouped[base]
		sort.Slice(series, func(i, j int) bool { return series[i].pe < series[j].pe })
		pn := promName(base)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		for _, sv := range series {
			if sv.pe == "" {
				fmt.Fprintf(w, "%s %d\n", pn, sv.val)
			} else {
				fmt.Fprintf(w, "%s{pe=%q} %d\n", pn, sv.pe, sv.val)
			}
		}
	}

	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %g\n", pn, s.Gauges[name])
	}

	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for _, b := range hs.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, hs.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, hs.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, hs.Count)
		fmt.Fprintf(w, "# TYPE %s_max gauge\n", pn)
		fmt.Fprintf(w, "%s_max %d\n", pn, hs.Max)
	}

	for _, name := range sortedKeys(s.PEAccums) {
		as := s.PEAccums[name]
		pn := promName(name)
		for _, part := range []struct {
			suffix string
			typ    string
			vals   []int64
		}{
			{"_count", "counter", as.Count},
			{"_sum", "counter", as.Sum},
			{"_max", "gauge", as.Max},
		} {
			fmt.Fprintf(w, "# TYPE %s%s %s\n", pn, part.suffix, part.typ)
			for pe, v := range part.vals {
				fmt.Fprintf(w, "%s%s{pe=\"%d\"} %d\n", pn, part.suffix, pe, v)
			}
		}
	}
}

// splitPELabel splits a ".pe<i>" suffix off a metric name, returning
// the base name and the PE index as a string ("" if none).
func splitPELabel(name string) (base, pe string) {
	i := strings.LastIndex(name, ".pe")
	if i < 0 {
		return name, ""
	}
	digits := name[i+3:]
	if digits == "" {
		return name, ""
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return name, ""
		}
	}
	return name[:i], digits
}

// promName converts a registry name to a valid Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
