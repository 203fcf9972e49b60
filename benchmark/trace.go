package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 = none). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	t0 time.Time
	// enabled gates recording, so a traced run can time the same requests
	// with tracing off and on and report the difference as its overhead.
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.enabled.Store(true)
	return t
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// enable switches recording; a no-op on a nil tracer.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if !t.on() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose end is filled in by finish; children recorded in
// between can name it as their parent.
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on() {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its direct children cover. Overlapping
// siblings are merged first, and children are clipped to the parent, so a
// parent's self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups self times (in nanoseconds) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID]))
	}
	return out
}

// writeTrace writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
