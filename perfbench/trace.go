package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval: a top-level operation (parent 0) or a call
// the benchmark made into a layer on that operation's behalf.
type span struct {
	id, parent int64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory for the traced window. A nil *tracer
// records nothing, so untraced code paths pay only the nil check.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// newID returns a fresh span id; ids start at 1 so 0 can mean "no parent".
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span. Child spans pass id 0 to get a fresh id.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
}

// durations returns the durations in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of its interval covered by its children (the union, so
// concurrent children are not counted twice).
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, selfTime(s, children[s.id]))
		}
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals clipped to the parent's.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.end.Sub(parent.start) - covered
}
