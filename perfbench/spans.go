package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program: set-up,
// a core.Run, a registry pass, or an experiment's Generate or Render.
// Spans of one op share its Trace id; Parent names the span whose call
// contained this one.
type span struct {
	ID, Parent, Trace uint64
	Name              string
	Attr              string
	Start, End        time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so that children can name their parent before
// the parent span is recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as a Chrome trace-event file, which Perfetto
// and chrome://tracing open, with the run's provenance attached.
func (t *tracer) write(path string, prov provenance) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "trace": s.Trace, "attr": s.Attr,
			},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": prov})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
