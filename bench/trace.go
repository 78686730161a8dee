package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records spans around the bench's calls into the layers' public
// functions — the layers are measured from outside, nothing in them is
// instrumented. Spans are kept in memory and written when the workload
// ends. A nil *tracer records nothing, so the untraced passes pay one
// nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

type span struct {
	name   string
	detail string // cell or boundary the span belongs to
	start  time.Duration
	end    time.Duration
	parent int // index into spans, -1 for the root
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, detail: detail, start: time.Since(t.t0), parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span closed out of order")
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// span runs fn inside a named span.
func (t *tracer) span(name, detail string, fn func()) {
	id := t.begin(name, detail)
	fn()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.name] += self[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto opens directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent},
		}
		if s.detail != "" {
			evs[i].Args["detail"] = s.detail
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
