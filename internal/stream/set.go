package stream

import (
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
)

// Set is a maintained violation set under bag semantics: a violation
// stays while any reference holds it and is reported once however many
// do. The engine keys it by source identity (vioKey), the sharding
// coordinator by Violation.Key() with one reference per reporting shard.
// A batch's net diff falls out of Diff. Not safe for concurrent use.
type Set[K comparable] struct {
	m map[K]*setEntry
	// prior records the batch-start rendering (nil = absent) of every key
	// the running batch has modified.
	prior map[K]*pfd.Violation
}

// setEntry is one violation with the number of references holding it.
type setEntry struct {
	v    pfd.Violation
	refs int
}

// NewSet returns an empty set.
func NewSet[K comparable]() *Set[K] {
	return &Set[K]{m: make(map[K]*setEntry), prior: make(map[K]*pfd.Violation)}
}

// Len returns the number of distinct violations held.
func (s *Set[K]) Len() int { return len(s.m) }

// Ref adds one reference to the violation. When the key is already held
// the stored rendering is refreshed: the caller just rendered v from the
// current table, while the entry may hold bytes from before this delta
// (two sources can hold the same violation — ambiguous extractions put a
// pair in several blocks — and sequential maintenance then never passes
// through zero references).
func (s *Set[K]) Ref(k K, v pfd.Violation) {
	ent := s.m[k]
	s.touch(k, ent)
	if ent == nil {
		s.m[k] = &setEntry{v: v, refs: 1}
	} else {
		ent.refs++
		ent.v = v
	}
}

// load references v under k recording no batch-start state: Boot's set
// has no batch before it, and its sorted base is rendered apart.
func (s *Set[K]) load(k K, v pfd.Violation) {
	if ent := s.m[k]; ent != nil {
		ent.refs++
		return
	}
	s.m[k] = &setEntry{v: v, refs: 1}
}

// Unref drops one reference, deleting the violation when no reference
// holds it any more. Unreferencing an absent key does nothing.
func (s *Set[K]) Unref(k K) {
	ent := s.m[k]
	if ent == nil {
		return
	}
	s.touch(k, ent)
	ent.refs--
	if ent.refs <= 0 {
		delete(s.m, k)
	}
}

// Replace drops every reference, then takes one for each violation listed
// (keyed by key): the set is rebuilt from its holders' full current lists,
// as when row numbering moved under all of them.
func (s *Set[K]) Replace(key func(pfd.Violation) K, lists ...[]pfd.Violation) {
	for k, ent := range s.m {
		if _, done := s.prior[k]; !done {
			s.prior[k] = &ent.v // ent leaves the set below and is never written again
		}
	}
	clear(s.m)
	for _, list := range lists {
		for _, v := range list {
			s.Ref(key(v), v)
		}
	}
}

// touch records the batch-start state of a key (nil = absent) the first
// time the key is modified within the batch, so the batch's net diff
// falls out of comparing that record with the final state.
func (s *Set[K]) touch(k K, ent *setEntry) {
	if _, done := s.prior[k]; done {
		return
	}
	if ent == nil {
		s.prior[k] = nil
		return
	}
	v := ent.v
	s.prior[k] = &v
}

// Diff compares every touched key's batch-start state with the final
// state, renders the net diff in the engine's violation order, and clears
// the record for the next batch.
func (s *Set[K]) Diff(seq int64, rows int) *Diff {
	out := &Diff{Seq: seq, Rows: rows}
	for k, prior := range s.prior {
		cur := s.m[k]
		switch {
		case prior == nil && cur != nil:
			out.Added = append(out.Added, cur.v)
		case prior != nil && cur == nil:
			out.Removed = append(out.Removed, *prior)
		case prior != nil && cur != nil:
			if !sameRendering(*prior, cur.v) {
				out.Removed = append(out.Removed, *prior)
				out.Added = append(out.Added, cur.v)
			}
		}
	}
	if len(s.prior) > 64 {
		// A delete records every violation, and clearing a map costs its
		// capacity on every later batch: let a large one go.
		s.prior = make(map[K]*pfd.Violation)
	}
	clear(s.prior)
	detect.SortViolations(out.Added)
	detect.SortViolations(out.Removed)
	return out
}

// sameRendering reports whether two violations with the same key (same
// rule, tableau row, and cells) also agree on the value fields, i.e. are
// byte-identical.
func sameRendering(a, b pfd.Violation) bool {
	return a.Observed == b.Observed && a.Expected == b.Expected && a.Variable == b.Variable
}
