package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around a public API call (never inside the program). Spans
// nest: a span opened while another is open becomes its child. Layer
// is the name's first dot-separated component ("core", "faultinject",
// ...); "bench" marks the benchmark's own structure, whose self time is
// the unattributed remainder.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	// StartNs/EndNs are offsets from the start of the run.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for one run. The benchmark calls the
// program from a single goroutine, so an open-span stack gives each
// span its parent. A disabled tracer still runs the wrapped calls; it
// only records nothing.
type tracer struct {
	on    bool
	run   string
	start time.Time
	spans []span
	open  []int
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, start: time.Now()}
}

// do runs fn inside a span named name and returns fn's error.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run,
		StartNs: int64(time.Since(t.start))})
	t.open = append(t.open, id)
	err := fn()
	t.spans[id].EndNs = int64(time.Since(t.start))
	t.open = t.open[:len(t.open)-1]
	return err
}

// durations returns the durations of every span with the given name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// within returns the summed duration of spans named name that lie
// inside the span with the given id.
func (t *tracer) within(id int, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.StartNs >= t.spans[id].StartNs && s.EndNs <= t.spans[id].EndNs {
			d += s.dur()
		}
	}
	return d
}

// last returns the duration of the latest span named name.
func (t *tracer) last(name string) time.Duration {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i].dur()
		}
	}
	return 0
}

// selfTimes attributes the root span's wall time to layers: each span
// contributes its duration minus its children's, and the "bench" spans'
// share is returned as the unattributed remainder. The layer values
// plus the remainder sum to the root's duration exactly.
func (t *tracer) selfTimes() (layers map[string]float64, unattributed, wall float64) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	layers = map[string]float64{}
	for _, s := range t.spans {
		self := (s.dur() - child[s.ID]).Seconds()
		if s.Parent < 0 {
			wall += s.dur().Seconds()
		}
		if l := s.layer(); l == "bench" {
			unattributed += self
		} else {
			layers[l] += self
		}
	}
	return layers, unattributed, wall
}

// writeJSONL writes every recorded span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span %d: %w", s.ID, err)
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
