package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Trace identifies the operation: its query position or
// write batch, so the spans of one query across ladder rungs share it.
type span struct {
	Name    string `json:"name"`
	Trace   int    `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the spans of a traced run in memory and writes them out
// when the run ends. A nil *spanLog records nothing (untraced runs).
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// maxSpans bounds the log's memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, trace int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{Name: name, Trace: trace,
			StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds()})
	}
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
