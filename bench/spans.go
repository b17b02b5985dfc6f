package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; the program itself is not instrumented.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run writes them out. The traced
// child records from one goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin), End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = time.Since(t.origin)
	return t.spans[id].End - t.spans[id].Start
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// total sums the durations of every closed span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - covered(kids[i])
	}
	return self
}

// selfByName sums self times by span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	m := make(map[string]time.Duration)
	for i, s := range t.spans {
		m[s.Name] += self[i]
	}
	return m
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end time.Duration
	for _, s := range spans {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome trace_event JSON, with
// its parent and self time as arguments.
func (t *tracer) writeChrome(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"self_us": us(self[i])}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: 1, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
