package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Start and End are
// nanoseconds since the run began; Parent is the enclosing span's ID
// (0 for the root); all spans of a run share RunID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RunID  string `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its end
// function. Spans are opened and closed on the benchmark's main goroutine
// only.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, RunID: t.runID, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// timeSpan runs fn inside a span and returns its duration.
func (t *tracer) timeSpan(name string, fn func()) time.Duration {
	end := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return d
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[layerOf(s.Name)] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return self
}

// write saves the spans as JSON and the self-time summary as text, and
// returns the summary.
func (t *tracer) write(dir, stem string) (string, error) {
	if err := writeJSONFile(filepath.Join(dir, stem+"-spans.json"), t.spans); err != nil {
		return "", err
	}
	self := t.selfTimes()
	layers := sortedKeys(self)
	sort.SliceStable(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "self time by layer (%d spans, run %s)\n", len(t.spans), t.runID)
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-10s %12.3f ms\n", l, float64(self[l])/1e6)
	}
	return b.String(), os.WriteFile(filepath.Join(dir, stem+"-summary.txt"), []byte(b.String()), 0o644)
}
