package main

import (
	"encoding/json"
	"sort"
	"time"
)

// tracer keeps the traced run's spans in memory; they are written once,
// as Chrome trace-event JSON, when the run ends. Spans are recorded only
// around the benchmark's own calls into the program. A nil *tracer
// records nothing, which is how untraced runs call the same code. Spans
// come from the one goroutine that drives the workload.
type tracer struct {
	start time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Time
	args       map[string]any
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// open starts a span now and returns its handle (-1 when t is nil).
func (t *tracer) open(name string, parent int, args map[string]any) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now(), args: args})
	return len(t.spans) - 1
}

// close ends span id now.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Now()
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.name] += ms(s.end.Sub(s.start) - child[i])
	}
	return out
}

// chromeJSON renders the spans as Chrome trace-event JSON: one B/E pair
// per span, children nested inside their parent, in time order.
func (t *tracer) chromeJSON() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	children := make(map[int][]int)
	var roots []int
	for i, s := range t.spans {
		if s.parent < 0 {
			roots = append(roots, i)
		} else {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byStart := func(ids []int) {
		sort.SliceStable(ids, func(a, b int) bool { return t.spans[ids[a]].start.Before(t.spans[ids[b]].start) })
	}
	byStart(roots)
	us := func(at time.Time) float64 { return float64(at.Sub(t.start)) / float64(time.Microsecond) }
	events := []event{}
	var emit func(i int)
	emit = func(i int) {
		s := t.spans[i]
		events = append(events, event{Name: s.name, Ph: "B", Ts: us(s.start), Pid: 1, Tid: 1, Args: s.args})
		kids := children[i]
		byStart(kids)
		for _, k := range kids {
			emit(k)
		}
		events = append(events, event{Name: s.name, Ph: "E", Ts: us(s.end), Pid: 1, Tid: 1})
	}
	for _, r := range roots {
		emit(r)
	}
	return json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
