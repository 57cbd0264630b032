// Package invlist implements the hash-based inverted list H of the
// discovery algorithm (Figure 2, lines 4–8): a map from an LHS token or
// n-gram to the postings that mention it. Each posting records the tuple
// id, the position of the key inside the LHS value, the corresponding RHS
// token, and the RHS token's position.
package invlist

import "sort"

// Posting is the value triple inserted at line 8 of Figure 2 (plus the RHS
// position, which the paper's GUI displays in Figure 4).
type Posting struct {
	// TupleID is id(t).
	TupleID int
	// LHSPos is pos_s: where the key occurs inside t[A].
	LHSPos int
	// RHS is u: the token or n-gram of t[B] paired with the key.
	RHS string
	// RHSPos is pos_u.
	RHSPos int
}

// List is the inverted list. The zero value is ready to use after
// NewList; use NewList to size the map.
type List struct {
	m map[string][]Posting
}

// NewList returns an empty inverted list.
func NewList() *List {
	return &List{m: make(map[string][]Posting)}
}

// Insert appends a posting under the key (line 8 of Figure 2).
func (l *List) Insert(key string, p Posting) {
	l.m[key] = append(l.m[key], p)
}

// Postings returns the postings for a key (nil if absent). The returned
// slice aliases internal state; callers must not mutate it.
func (l *List) Postings(key string) []Posting {
	return l.m[key]
}

// Len returns the number of distinct keys.
func (l *List) Len() int { return len(l.m) }

// Keys returns all keys in sorted order for deterministic iteration.
func (l *List) Keys() []string {
	keys := make([]string, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Entry summarizes one inverted-list entry for the decision function f:
// the key, its postings, the distinct tuples mentioning it, and the RHS
// histogram.
type Entry struct {
	Key      string
	Postings []Posting
	// Support is the number of distinct tuples mentioning the key.
	Support int
	// RHSCounts maps each RHS value to the number of distinct tuples
	// pairing the key with it.
	RHSCounts map[string]int
	// TopRHS is the RHS value with the highest count; ties break
	// lexicographically for determinism.
	TopRHS string
	// TopCount is RHSCounts[TopRHS].
	TopCount int
	// DominantLHSPos is the most frequent LHS position of the key, and
	// PosPurity the fraction of postings at that position. Rules anchor
	// on a position (Section 4: "pattern::position, frequency").
	DominantLHSPos int
	PosPurity      float64
}

// Analyze builds the Entry summary for a key. It de-duplicates by tuple:
// a tuple contributes one vote per distinct (tuple, RHS) pair and one
// support unit total.
func (l *List) Analyze(key string) Entry {
	ps := l.m[key]
	e := Entry{Key: key, Postings: ps, RHSCounts: make(map[string]int)}
	seenTuple := make(map[int]bool)
	seenPair := make(map[int]map[string]bool)
	posCounts := make(map[int]int)
	for _, p := range ps {
		if !seenTuple[p.TupleID] {
			seenTuple[p.TupleID] = true
			e.Support++
		}
		if seenPair[p.TupleID] == nil {
			seenPair[p.TupleID] = make(map[string]bool)
		}
		if !seenPair[p.TupleID][p.RHS] {
			seenPair[p.TupleID][p.RHS] = true
			e.RHSCounts[p.RHS]++
		}
		posCounts[p.LHSPos]++
	}
	for rhs, c := range e.RHSCounts {
		if c > e.TopCount || (c == e.TopCount && rhs < e.TopRHS) {
			e.TopRHS, e.TopCount = rhs, c
		}
	}
	bestPos, bestN := 0, -1
	for pos, n := range posCounts {
		if n > bestN || (n == bestN && pos < bestPos) {
			bestPos, bestN = pos, n
		}
	}
	e.DominantLHSPos = bestPos
	if len(ps) > 0 {
		e.PosPurity = float64(bestN) / float64(len(ps))
	}
	return e
}

// Entries returns Analyze for every key, sorted by descending support and
// then key, so discovery examines strong keys first.
func (l *List) Entries() []Entry {
	out := make([]Entry, 0, len(l.m))
	for _, k := range l.Keys() {
		out = append(out, l.Analyze(k))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Confidence returns TopCount/Support: the fraction of supporting tuples
// whose RHS agrees with the majority. 1 − Confidence is the violation
// ratio the paper's second user parameter bounds.
func (e Entry) Confidence() float64 {
	if e.Support == 0 {
		return 0
	}
	return float64(e.TopCount) / float64(e.Support)
}
