package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is -1 for an operation's root spans.
// Synthetic spans (Agg) stand for time summed over many short calls,
// such as the device builtins inside one kmain run; they are laid out
// from their parent's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    bool   `json:"agg,omitempty"`
}

// tracer keeps spans in memory for the whole run; write dumps them at
// exit. A nil *tracer records nothing, so untraced operations call the
// same code.
type tracer struct {
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// child records a finished span of duration d under parent, starting at
// offset from the parent's start: how the build phases reported in
// build.Result.Timings become children of the benchmark's build.Build
// span.
func (t *tracer) child(name string, parent int, offset, d time.Duration, agg bool) {
	if t == nil || parent < 0 {
		return
	}
	start := t.spans[parent].Start + int64(offset)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: start, End: start + int64(d), Agg: agg})
}

// dur is span id's duration.
func (t *tracer) dur(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns each layer's self time summed over all spans of
// that name: a span's duration minus the part of its interval that its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := coverage(s, kids[s.ID])
		self[s.Name] += time.Duration(s.End-s.Start) - covered
	}
	return self
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return time.Duration(total + curB - curA)
}

// printSelf prints self time per layer, per traced operation.
func (t *tracer) printSelf() {
	ops := map[int]bool{}
	for _, s := range t.spans {
		ops[s.Op] = true
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("self time per layer, per traced op (%d ops, %d spans):\n", len(ops), len(t.spans))
	for _, n := range names {
		fmt.Printf("  %-32s %10.3f ms\n", n, ms(self[n])/float64(len(ops)))
	}
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
