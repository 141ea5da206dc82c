package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its ID through Parent; a span with Parent 0 is a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends; write puts them out
// as one JSON object per line. Self time of a span is its duration minus
// the part its children cover.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its ID, to be given to its children.
func (l *spanLog) add(name string, start, end time.Time, parent int64) int64 {
	return l.addNs(name, int64(start.Sub(l.origin)), int64(end.Sub(l.origin)), parent)
}

func (l *spanLog) addNs(name string, start, end, parent int64) int64 {
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	l.mu.Unlock()
	return id
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
