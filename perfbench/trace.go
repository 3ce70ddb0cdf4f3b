package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans one run keeps; later ones are counted only.
const maxSpans = 500_000

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced code paths run.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns fn's duration.
func (t *tracer) call(name, req string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, req, parent)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTime is one span name's aggregate: how often it ran, its total
// duration, and its self time (duration minus the time its children
// cover).
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates the recorded spans by name. Children of one span
// run one after another, so their durations add up without overlap.
func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write saves the spans and their self-time summary as one JSON file and
// prints the summary.
func (t *tracer) write(path string, fp envFingerprint) error {
	self := t.selfTimes()
	for _, s := range self {
		fmt.Printf("#   self %-34s n=%-7d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Fingerprint envFingerprint `json:"fingerprint"`
		SelfTimes   []selfTime     `json:"self_times"`
		Dropped     int            `json:"dropped_spans"`
		Spans       []span         `json:"spans"`
	}{fp, self, t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
