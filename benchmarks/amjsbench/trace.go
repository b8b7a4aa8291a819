package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceSpan is one call the harness made into a layer. Times are
// nanoseconds since the tracer started; Parent is the ID of the span
// that caused this one (0 for a root) and Op groups the spans of one
// timed op.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until write. A nil tracer is
// the untraced run: every method is a no-op, so the workloads call it
// unconditionally and tracing costs nothing when off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex // daemon-ingest posts from two goroutines
	spans  []traceSpan
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, traceSpan{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Op: op, StartNS: now, EndNS: -1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// timed runs fn inside a root span outside any op (a set-up step or a
// probe) and returns how long it took.
func (t *tracer) timed(name string, fn func()) time.Duration {
	sp := t.begin(name, 0, 0)
	t0 := time.Now()
	fn()
	dt := time.Since(t0)
	t.end(sp)
	return dt
}

// aggregate records many short calls as one span under parent: it
// starts at the first call and lasts the sum of the calls, which keeps
// it inside the parent without a span per call.
func (t *tracer) aggregate(name string, parent, op int, first time.Time, total time.Duration) {
	if t == nil {
		return
	}
	start := first.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, traceSpan{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Op: op,
		StartNS: start, EndNS: start + total.Nanoseconds(),
	})
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// windowMS lists the durations of the spans called name that belong to
// a timed op (set-up and probe spans carry op 0).
func (t *tracer) windowMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Op > 0 && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []traceSpan      `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counts: t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
