package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side
// of the boundary. Spans of one request (or one shadow-pipeline pass)
// share req; parent is the index of the span that caused this one, -1
// for a root.
type span struct {
	layer, name string
	req         int
	parent      int
	start, end  time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends; nothing is written
// while a measurement is in flight.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent, req int, layer, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, req: req, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		var covered time.Duration
		edge := s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// durations lists the durations and self times of every closed span
// with the given name, in recording order.
func (t *tracer) durations(name string) (total, self []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfs := selfTimes(t.spans)
	for i, s := range t.spans {
		if s.name == name && s.end >= 0 {
			total = append(total, (s.end - s.start).Seconds())
			self = append(self, selfs[i].Seconds())
		}
	}
	return total, self
}

// writeChrome writes the spans as Chrome trace_event JSON (open it at
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// track per request, self time and parent in the detail pane.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	selfs := selfTimes(t.spans)
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.req,
			Args: map[string]any{"span": i, "parent": s.parent, "self_us": us(selfs[i])},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
