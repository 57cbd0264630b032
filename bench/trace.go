// The traced replay's span recorder. Spans are recorded from the bench's
// own files, around the calls into each layer; they stay in memory and
// are written out when the run ends. A layer's self time is its span's
// duration minus the part of that interval its child spans cover.
package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Op     string `json:"op"` // the script op kind the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans. The replay is single-goroutine, so begin/end
// keep a stack and a span's parent is whatever is open; fan-out workers
// (shard nodes) attach under an explicit parent with beginUnder.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
	op    string
	off   bool // record nothing (the untraced half of the overhead pair)
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setOp labels the spans that follow with a script op kind.
func (r *recorder) setOp(op string) {
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
}

func (r *recorder) top() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

func (r *recorder) begin(name string) int {
	if r.off {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: r.op, Start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
}

// beginUnder opens a span under an explicit parent without touching the
// stack; safe from any goroutine.
func (r *recorder) beginUnder(parent int, name string) int {
	if r.off {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: r.op, Start: r.now()})
	return id
}

// add records a span with known bounds (a seam that learns only
// afterwards that an interval was one).
func (r *recorder) add(name string, start, end int64) {
	if r.off {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Op: r.op, Start: start, End: end})
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns every span's self time: duration minus the union of
// its children's intervals (clipped to the span), so children that
// overlap each other are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range kids {
			lo, end := k.Start, k.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanAgg sums spans by (name, op kind).
type spanAgg struct {
	Count int
	Total int64 // summed durations
	Self  int64 // summed self times
}

type spanKey struct{ Name, Op string }

func aggregate(spans []span) map[spanKey]*spanAgg {
	self := selfTimes(spans)
	out := make(map[spanKey]*spanAgg)
	for i, s := range spans {
		keys := []spanKey{{s.Name, s.Op}}
		if s.Op != "" {
			keys = append(keys, spanKey{s.Name, ""}) // the all-kinds total
		}
		for _, k := range keys {
			a := out[k]
			if a == nil {
				a = &spanAgg{}
				out[k] = a
			}
			a.Count++
			a.Total += s.dur()
			a.Self += self[i]
		}
	}
	return out
}

// writeSpans dumps the recorded spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
