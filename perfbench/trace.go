package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Spans of one op share a root: the op's own
// span, whose ID the children carry as Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps the most recent spans in a fixed ring, so a traced loop
// of any length runs in bounded memory. A nil tracer records nothing:
// untraced loops pass nil and pay one nil-check per span site.
type tracer struct {
	base time.Time
	ring []span
	next int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), ring: make([]span, capacity)}
}

// id allocates the next span ID; allocate a parent's before its
// children's, record it after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.ring[id%int64(len(t.ring))] = span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
}

// spans returns the retained spans in ID order.
func (t *tracer) spans() []span {
	var out []span
	for _, s := range t.ring {
		if s.ID > 0 && s.ID > t.next-int64(len(t.ring)) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTime is one span name's total and self time over the retained
// spans: self time is a span's duration minus the part its children
// cover (children of one span never overlap).
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs float64 `json:"total_ns"`
	SelfNs  float64 `json:"self_ns"`
}

func (t *tracer) selfTimes() []selfTime {
	spans := t.spans()
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	var out []*selfTime
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
			out = append(out, st)
		}
		st.Count++
		st.TotalNs += float64(s.End - s.Start)
		st.SelfNs += float64(s.End - s.Start - child[s.ID])
	}
	res := make([]selfTime, len(out))
	for i, st := range out {
		res[i] = *st
	}
	return res
}

// report prints each span name's mean total and self time.
func (t *tracer) report(w io.Writer) {
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "span %-34s n=%-7d mean %12.1f ns  self %12.1f ns\n",
			st.Name, st.Count, st.TotalNs/float64(st.Count), st.SelfNs/float64(st.Count))
	}
}

// write saves the retained spans and their self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"self": t.selfTimes(), "spans": t.spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
