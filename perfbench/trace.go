package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. All spans of one op share Op; Parent is the enclosing span (0
// for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) durMS() float64 { return (s.End - s.Start) / 1000 }

// module is the layer a span belongs to: its name up to the first dot.
func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code at the cost of a nil
// check.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.base)) / float64(time.Microsecond) }

// begin opens a span and returns its id, for end and as a parent.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span and returns its duration in milliseconds;
// the duration is measured with or without a tracer.
func (t *tracer) call(name string, op, parent int, f func()) float64 {
	id := t.begin(name, op, parent)
	start := time.Now()
	f()
	d := msSince(start)
	t.end(id)
	return d
}

// selfTimeMS sums, per module, each span's duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfTimeMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.module()] += s.durMS() - coveredMS(s, children[s.ID])
	}
	return self
}

// coveredMS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMS(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd float64
	open := false
	for _, k := range kids {
		st, en := max(k.Start, parent.Start), min(k.End, parent.End)
		if en <= st {
			continue
		}
		if open && st <= curEnd {
			curEnd = max(curEnd, en)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = st, en, true
	}
	if open {
		total += curEnd - curStart
	}
	return total / 1000
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
