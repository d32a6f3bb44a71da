package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. parent is the id of the span that caused it
// (0 for a root). rid ties a request's spans together: the client's
// span id, carried to the server in ridHeader and reused by the replay.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	RID    int32  `json:"rid,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Timed  bool   `json:"timed,omitempty"` // inside the timed phase
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Span ids are indexes+1 into spans, so 0 means "no span".
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve allocates a span id ahead of its times, so that a client can
// hand its id to the server before the request completes.
func (t *tracer) reserve() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return int32(len(t.spans))
}

// finish fills in a reserved span.
func (t *tracer) finish(id int32, name string, parent, rid int32, start, end time.Time, timed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, RID: rid,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Timed: timed}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, rid int32, start, end time.Time, timed bool) int32 {
	id := t.reserve()
	t.finish(id, name, parent, rid, start, end, timed)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int32]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// checkSpans is the span-tree sanity check: every span ends after it
// starts, every parent exists, every child lies inside its parent, and
// no self time is negative.
func checkSpans(spans []span) error {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			return fmt.Errorf("span %q was reserved but never finished", s.Name)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] is not inside its parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d has negative self time %v", id, d)
		}
	}
	return nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
