package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the harness into a layer. Spans are recorded
// only by the harness goroutine, so begin/end nest like a stack.
type span struct {
	Name     string
	Workload string
	Parent   int // index into tracer.spans, -1 for a root
	Start    time.Duration
	End      time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the timed pass runs untraced.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	cur      int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, cur: -1}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: t.cur, Start: time.Since(t.t0)})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.cur = t.spans[id].Parent
}

// selfSeconds returns, per layer (the span name up to the first "."), the
// summed self time: each span's duration minus the part its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i].Seconds()
	}
	return out
}

// writeChromeTrace writes the spans of every tracer as Chrome trace-event
// JSON ("X" complete events, microseconds), one thread row per workload.
func writeChromeTrace(path string, tracers []*tracer) error {
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
	events := []event{}
	for tid, t := range tracers {
		shift := t.t0.Sub(tracers[0].t0)
		for i, s := range t.spans {
			layer, _, _ := strings.Cut(s.Name, ".")
			events = append(events, event{
				Name: s.Name, Cat: layer, Ph: "X",
				Ts:  float64((shift + s.Start).Nanoseconds()) / 1e3,
				Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
				Pid: 1, Tid: tid + 1,
				Args: map[string]any{"workload": s.Workload, "id": i, "parent": s.Parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
