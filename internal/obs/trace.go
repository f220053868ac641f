package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects timed spans on named tracks and serializes them in
// the Chrome trace_event format, loadable in chrome://tracing and
// Perfetto. Each track (one per PE, plus "driver" for sequential
// stages) becomes a thread row; spans become complete ("X") events.
//
// A tracer becomes the process-wide collection point via StartTrace;
// span helpers (StartSpan, StartSpanPE) are no-ops while no tracer is
// active, costing one atomic pointer load.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	events []traceEvent
	tids   map[string]int
	order  []string // track names in tid order
}

// traceEvent is one Chrome trace_event object. Ts and Dur are in
// microseconds per the format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// active is the installed tracer, nil when tracing is off.
var active atomic.Pointer[Tracer]

// NewTracer returns a tracer whose clock starts now. Most callers want
// StartTrace instead, which also installs the tracer globally.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), tids: make(map[string]int)}
}

// StartTrace installs a fresh tracer as the global span sink and
// returns it, replacing any previous one.
func StartTrace() *Tracer {
	tr := NewTracer()
	active.Store(tr)
	return tr
}

// StopTrace uninstalls and returns the global tracer (nil if tracing
// was not active). The returned tracer can still be written out.
func StopTrace() *Tracer {
	return active.Swap(nil)
}

// ActiveTracer returns the installed tracer, or nil.
func ActiveTracer() *Tracer { return active.Load() }

// TrackDriver is the track for sequential, non-PE stages (mesh
// generation, partitioning, solves).
const TrackDriver = "driver"

// tid interns a track name. Caller must hold mu.
func (tr *Tracer) tid(track string) int {
	id, ok := tr.tids[track]
	if !ok {
		id = len(tr.order)
		tr.tids[track] = id
		tr.order = append(tr.order, track)
	}
	return id
}

// complete records a finished span.
func (tr *Tracer) complete(track, cat, name string, t0 time.Time, dur time.Duration, args map[string]any) {
	ts := float64(t0.Sub(tr.start)) / float64(time.Microsecond)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.events = append(tr.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: ts, Dur: float64(dur) / float64(time.Microsecond),
		Tid: tr.tid(track), Args: args,
	})
}

// CounterEvent records a Chrome counter ("C") sample — a stepped graph
// in the viewer. Used for e.g. CG residual progression.
func (tr *Tracer) CounterEvent(track, name string, value float64) {
	if tr == nil {
		return
	}
	ts := float64(time.Since(tr.start)) / float64(time.Microsecond)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.events = append(tr.events, traceEvent{
		Name: name, Ph: "C", Ts: ts, Tid: tr.tid(track),
		Args: map[string]any{"value": value},
	})
}

// Span is an in-flight timed region. The zero Span (from a disabled
// helper) is inert: End is a no-op.
type Span struct {
	tr    *Tracer
	track string
	cat   string
	name  string
	t0    time.Time
}

// StartSpan opens a span on the given track if tracing is active.
func StartSpan(track, cat, name string) Span {
	tr := active.Load()
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, track: track, cat: cat, name: name, t0: time.Now()}
}

// peTracks caches the track names of the first PEs so the hot per-PE
// span path does not allocate.
var peTracks = func() []string {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("pe%d", i)
	}
	return names
}()

// PETrack returns the track name of PE number pe ("pe0", "pe1", …).
func PETrack(pe int) string {
	if pe >= 0 && pe < len(peTracks) {
		return peTracks[pe]
	}
	return fmt.Sprintf("pe%d", pe)
}

// StartSpanPE opens a span on PE pe's track if tracing is active.
func StartSpanPE(cat, name string, pe int) Span {
	tr := active.Load()
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, track: PETrack(pe), cat: cat, name: name, t0: time.Now()}
}

// End closes the span, recording a complete event.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.complete(s.track, s.cat, s.name, s.t0, time.Since(s.t0), nil)
}

// EndWith closes the span with key/value annotations shown in the
// viewer's detail pane.
func (s Span) EndWith(args map[string]any) {
	if s.tr == nil {
		return
	}
	s.tr.complete(s.track, s.cat, s.name, s.t0, time.Since(s.t0), args)
}

// Active reports whether the span will record on End (i.e. tracing was
// on when it was started).
func (s Span) Active() bool { return s.tr != nil }

// traceFile is the on-disk shape: the standard JSON object form of the
// trace_event format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON serializes the trace, prepending thread_name metadata so
// viewers label each track. Safe to call while spans are still being
// recorded (it snapshots under the lock), though traces are normally
// written after StopTrace.
func (tr *Tracer) WriteJSON(w io.Writer) error {
	tr.mu.Lock()
	events := make([]traceEvent, 0, len(tr.order)+len(tr.events))
	for id, name := range tr.order {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Tid: id,
			Args: map[string]any{"name": name},
		})
	}
	events = append(events, tr.events...)
	tr.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// PhaseStat aggregates the spans sharing one name: how often the phase
// ran, total and longest duration, and how many distinct tracks (PEs)
// it ran on.
type PhaseStat struct {
	Name   string
	Count  int64
	Total  time.Duration
	Max    time.Duration
	Tracks int
}

// PhaseStats aggregates recorded spans by name, sorted by total time
// descending — the measured per-phase profile the report table prints.
func (tr *Tracer) PhaseStats() []PhaseStat {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type agg struct {
		stat   PhaseStat
		tracks map[int]struct{}
	}
	byName := make(map[string]*agg)
	for _, e := range tr.events {
		if e.Ph != "X" {
			continue
		}
		a, ok := byName[e.Name]
		if !ok {
			a = &agg{stat: PhaseStat{Name: e.Name}, tracks: make(map[int]struct{})}
			byName[e.Name] = a
		}
		d := time.Duration(e.Dur * float64(time.Microsecond))
		a.stat.Count++
		a.stat.Total += d
		if d > a.stat.Max {
			a.stat.Max = d
		}
		a.tracks[e.Tid] = struct{}{}
	}
	out := make([]PhaseStat, 0, len(byName))
	for _, a := range byName {
		a.stat.Tracks = len(a.tracks)
		out = append(out, a.stat)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
