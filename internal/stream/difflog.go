// DiffLog is the bounded per-batch diff history behind sequence cursors,
// plus the ordered violation snapshot those diffs lead to: the Sequencer
// answers "what changed since seq s" and "what is the set now" from one.
package stream

import (
	"fmt"
	"slices"
	"sort"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
)

// DiffLog retains the last N applied-batch diffs and the violation set
// they lead to, in the detection engine's total order. It is not
// synchronized; the Sequencer serializes access under its lock.
type DiffLog struct {
	max     int
	entries []*Diff
	// snap is the current violation set, sorted. It is shared with every
	// caller of Snapshot and therefore immutable: Append replaces it with
	// a patched copy, never edits it.
	snap []pfd.Violation
}

// NewDiffLog builds a log retaining at most max diffs (max <= 0 falls
// back to DefaultLogCap) over the given violation set, which must be in
// detect.SortViolations order and is owned by the log from here on.
func NewDiffLog(max int, snapshot []pfd.Violation) *DiffLog {
	if max <= 0 {
		max = DefaultLogCap
	}
	if snapshot == nil {
		snapshot = []pfd.Violation{} // the empty set renders as [], like full detection's
	}
	return &DiffLog{max: max, snap: snapshot}
}

// Append records one applied batch's diff — trimming the oldest entry
// past the retention cap — and moves the snapshot to the state the diff
// leads to. The diff must be exact against the current snapshot: every
// Removed key present, every Added key absent or also Removed.
func (l *DiffLog) Append(d *Diff) {
	if len(l.entries) == l.max {
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:l.max-1]
	}
	l.entries = append(l.entries, d)
	l.snap = patch(l.snap, d.Removed, d.Added)
}

// patch returns snap without the removed keys and with the added
// violations, all three in the total order. An empty change returns snap
// itself; anything else is one merge into a fresh slice, so a slice
// handed out earlier is never written again. The merge gallops between
// change points and copies the unchanged runs whole: a few comparisons
// for a point delta, linear when a delete rewrites the set.
func patch(snap, removed, added []pfd.Violation) []pfd.Violation {
	if len(removed)+len(added) == 0 {
		return snap
	}
	out := make([]pfd.Violation, 0, len(snap)-len(removed)+len(added))
	at := 0
	for len(removed)+len(added) > 0 {
		// A violation whose rendering changed is in both lists under one
		// key: the removal goes first, the addition lands in its place.
		if len(removed) == 0 || len(added) > 0 && detect.CompareViolations(&added[0], &removed[0]) < 0 {
			i := seek(snap, at, &added[0])
			out = append(append(out, snap[at:i]...), added[0])
			at, added = i, added[1:]
		} else {
			i := seek(snap, at, &removed[0]) // snap[i] is the removed violation
			out = append(out, snap[at:i]...)
			at, removed = i+1, removed[1:]
		}
	}
	return append(out, snap[at:]...)
}

// seek returns the first index at or after from whose violation does not
// sort before v, probing at doubling distances before it bisects.
func seek(snap []pfd.Violation, from int, v *pfd.Violation) int {
	hi := from
	for step := 1; hi < len(snap) && detect.CompareViolations(&snap[hi], v) < 0; step *= 2 {
		from, hi = hi+1, hi+step
	}
	hi = min(hi, len(snap))
	return from + sort.Search(hi-from, func(i int) bool { return detect.CompareViolations(&snap[from+i], v) >= 0 })
}

// Len returns the number of retained diffs (the Since horizon).
func (l *DiffLog) Len() int { return len(l.entries) }

// Snapshot returns the current violation set in the total order. The
// slice is shared and immutable: callers must not modify it, and no
// later Append will.
func (l *DiffLog) Snapshot() []pfd.Violation { return l.snap }

// Merge folds the retained diffs after the cursor into one net diff
// leading to curSeq: violations both added and removed in the span cancel
// out, and a violation whose bytes changed appears in both lists. When
// the cursor predates the retained log the change cannot be expressed as
// a diff and the full snapshot is returned with Reset set. A cursor ahead
// of curSeq is an error.
//
// Every diff's lists are already in the total order, so the fold is one
// k-way merge over them: the heap yields each key's events together, in
// log order with a diff's removal before its addition, and the net lists
// come out sorted.
func (l *DiffLog) Merge(cursor, curSeq int64, rows int) (*Diff, error) {
	if cursor > curSeq || cursor < 0 {
		return nil, fmt.Errorf("stream: cursor %d out of range [0,%d]", cursor, curSeq)
	}
	out := &Diff{Seq: curSeq, Rows: rows}
	if cursor == curSeq {
		return out, nil
	}
	if len(l.entries) == 0 || l.entries[0].Seq > cursor+1 {
		out.Reset = true
		out.Added = l.snap
		return out, nil
	}
	h := make(runs, 0, 2*len(l.entries))
	nAdded, nRemoved := 0, 0
	for i, dl := range l.entries {
		if dl.Seq > cursor {
			h = append(h, run{dl.Removed, 2 * i}, run{dl.Added, 2*i + 1})
			nAdded, nRemoved = nAdded+len(dl.Added), nRemoved+len(dl.Removed)
		}
	}
	h = slices.DeleteFunc(h, func(r run) bool { return len(r.vs) == 0 })
	slices.SortFunc(h, compareRuns) // sorted is a heap
	// Net additions are all in the current set; net removals mostly fit
	// a set of its size too. Sizing both lists once spares their growth.
	nAdded, nRemoved = min(nAdded, len(l.snap)), min(nRemoved, len(l.snap))
	for len(h) > 0 {
		var removed, added *pfd.Violation
		for key := &h[0].vs[0]; len(h) > 0 && detect.CompareViolations(&h[0].vs[0], key) == 0; {
			v := &h[0].vs[0]
			switch {
			case h[0].rank%2 == 1:
				added = v // keep the latest addition
			case added != nil:
				added = nil // added then removed within the span: net nothing
			case removed == nil:
				removed = v // keep the earliest removal rendering
			}
			h = h.next()
		}
		if added != nil && (removed == nil || !sameRendering(*added, *removed)) {
			out.Added = appendSized(out.Added, *added, nAdded)
		}
		if removed != nil && (added == nil || !sameRendering(*added, *removed)) {
			out.Removed = appendSized(out.Removed, *removed, nRemoved)
		}
	}
	return out, nil
}

// appendSized appends v to vs, giving a nil vs room for n first: an
// empty net list stays nil.
func appendSized(vs []pfd.Violation, v pfd.Violation, n int) []pfd.Violation {
	if vs == nil {
		vs = make([]pfd.Violation, 0, max(n, 1))
	}
	return append(vs, v)
}

// run is the unmerged rest of one diff list; rank orders runs holding the
// same key: log order, and within a diff its removals first.
type run struct {
	vs   []pfd.Violation
	rank int
}

// runs is a binary min-heap of non-empty runs in compareRuns order.
type runs []run

// compareRuns orders runs by head violation, then rank.
func compareRuns(a, b run) int {
	if c := detect.CompareViolations(&a.vs[0], &b.vs[0]); c != 0 {
		return c
	}
	return a.rank - b.rank
}

// next consumes the least head, dropping its run once it is empty.
func (h runs) next() runs {
	if h[0].vs = h[0].vs[1:]; len(h[0].vs) == 0 {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
	}
	for i := 0; ; {
		m := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if compareRuns(h[c], h[m]) < 0 {
				m = c
			}
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
