package main

// trace.go records spans from the benchmark's own code, around each call
// into a layer: (id, parent, name, start, end), kept in memory and written
// as JSON lines when the workload ends. A nil *tracer records nothing, so
// untraced runs execute the same workload code without the bookkeeping.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; Parent is 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans; safe for concurrent use (churn_burst records
// from many goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 when disabled).
func (t *tracer) add(parent int32, name string, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// begin opens a span whose end is filled by finish; used for spans that
// must exist before their children do.
func (t *tracer) begin(parent int32, name string) int32 {
	now := time.Now()
	return t.add(parent, name, now, now)
}

// finish closes a span opened with begin.
func (t *tracer) finish(id int32) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// time runs fn inside a span and returns its duration.
func (t *tracer) time(parent int32, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, start, end)
	return end.Sub(start)
}

// child attributes d of a layer's own accounting (a PhaseStats delta) to
// the parent as a synthetic child span starting at offset into it.
func (t *tracer) child(parent int32, name string, parentStart time.Time, offset, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.add(parent, name, parentStart.Add(offset), parentStart.Add(offset+d))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (overlapping children
// are merged, and clipped to the parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, c := range iv {
		a, b := max(c[0], cur), min(c[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// checkSpans verifies the file-level invariants: every parent exists and
// no self time is negative.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.Parent < 0 || int(s.Parent) > len(spans) || s.Parent == s.ID {
			return fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s): ends before it starts", s.ID, s.Name)
		}
	}
	for name, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %s: negative self time %v", name, d)
		}
	}
	return nil
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
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
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
