package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around its own
// calls into the system. Spans of one tracer hijack share Trace (the
// tracer id); other spans carry Trace -1. Times are Unix nanoseconds on
// the wall clock, the clock of the daemon's alert stamps.
type span struct {
	Name   string         `json:"name"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Trace  int64          `json:"trace"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// plain, untraced run) records nothing, so call sites need no guard.
type recorder struct {
	mu     sync.Mutex
	nextID int64
	spans  []span
}

// add records a span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, trace, parent int64, start, end int64, attrs map[string]any) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, span{Name: name, ID: r.nextID, Parent: parent, Trace: trace,
		Start: start, End: end, Attrs: attrs})
	return r.nextID
}

// addTimes is add for time.Time bounds.
func (r *recorder) addTimes(name string, trace, parent int64, start, end time.Time, attrs map[string]any) int64 {
	if r == nil {
		return 0
	}
	return r.add(name, trace, parent, start.UnixNano(), end.UnixNano(), attrs)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
