package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// ID of the span that caused it (0 for a root); times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. A nil tracer records
// nothing and costs nothing, which is how the untraced run uses it. It is
// safe for concurrent use: harness worker goroutines record point spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// durations returns the length of every closed span with the given name,
// in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// under groups the durations (ms) of closed spans named name by the
// nearest ancestor span named root, in the roots' start order.
func (t *tracer) under(root, name string) [][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	group := map[int]int{} // root span ID -> index in out
	var out [][]float64
	for _, s := range t.spans {
		if s.Name == root {
			group[s.ID] = len(out)
			out = append(out, nil)
		}
	}
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if g, ok := group[p]; ok && t.spans[p-1].Name == root {
				out[g] = append(out[g], float64(s.End-s.Start)/1e6)
				break
			}
		}
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
