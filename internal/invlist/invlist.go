// Package invlist implements the hash-based inverted list H of the
// discovery algorithm (Figure 2, lines 4–8): a map from an LHS token,
// prefix or n-gram to the postings that mention it.
//
// The paper inserts one posting per (key, tuple). Every consumer reads
// only that bag's set with multiplicities — how many tuples mention a key,
// with which RHS values, at which positions — so the list stores one
// posting per (key, distinct LHS value, occurrence) and weights it by the
// tuples that hold the value. It is built for one candidate dependency
// A → B over dictionary-coded columns:
//
//   - New groups the eligible tuples (non-empty A and B) by distinct A
//     value. Values are numbered by first eligible tuple, and each keeps
//     its ascending tuple run and its histogram of B values;
//   - Insert takes postings in value order (and enforces it), so a key's
//     postings are sorted by value and the distinct values of an entry —
//     what extensional de-duplication and subset pruning compare — are its
//     postings with adjacent repeats skipped. Every numbered value has a
//     tuple, so two entries' value sets are equal, or nested, exactly when
//     their tuple sets are;
//   - support is kept per key as postings arrive, so Entries groups, sorts
//     and analyzes only the keys at or above the caller's support floor,
//     each in one scan with reusable counters indexed by RHS ID and by
//     position: no per-key maps, no per-key allocations.
//
// The two questions that are about tuple order ("the first 64 mentions")
// are answered by Entry.InTupleOrder, a lazy merge of the tuple runs.
package invlist

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
)

// Kind says how a key was cut out of the LHS value.
type Kind uint8

const (
	// Token keys are delimiter-separated tokens of t[A]; the same token
	// can occur at different positions in different tuples.
	Token Kind = iota
	// Prefix keys are rune prefixes of t[A], anchored at position 0.
	Prefix
	// Gram keys are interior n-grams at one fixed rune position.
	Gram
)

// Key identifies one inverted-list entry. Prefixes and positioned n-grams
// share one list but are different keys ("900" as a prefix vs "900" at
// position 3), and the same n-gram at two positions is two keys.
type Key struct {
	Kind Kind
	// Pos is the rune position of a Gram key; 0 for the other kinds.
	Pos int32
	// Text is the token, prefix or n-gram. It aliases the LHS value it
	// was cut from.
	Text string
}

// String renders the key in the list's canonical form: the token itself,
// "p\x00"+prefix, or "g\x00"+gram+"\x00"+position. Keys are ordered by
// this rendering (see Compare).
func (k Key) String() string {
	switch k.Kind {
	case Prefix:
		return "p\x00" + k.Text
	case Gram:
		return "g\x00" + k.Text + "\x00" + strconv.Itoa(int(k.Pos))
	default:
		return k.Text
	}
}

// Compare orders keys exactly as strings.Compare(a.String(), b.String())
// would, without rendering them in the cases one list can hold: tokens
// against tokens, and prefixes and n-grams against each other (n-grams
// first; n-grams by text, then by the decimal spelling of the position, so
// position 10 sorts before position 9).
func Compare(a, b Key) int {
	switch {
	case a.Kind == b.Kind && a.Kind != Gram:
		return strings.Compare(a.Text, b.Text)
	case a.Kind == Gram && b.Kind == Gram && a.Text == b.Text:
		var ab, bb [12]byte
		return bytes.Compare(strconv.AppendInt(ab[:0], int64(a.Pos), 10), strconv.AppendInt(bb[:0], int64(b.Pos), 10))
	case a.Kind == Gram && b.Kind == Gram:
		// The texts decide unless one is a proper prefix of the other and
		// the longer continues with the NUL that ends the shorter's text
		// in the rendering.
		short, long := a.Text, b.Text
		if len(short) > len(long) {
			short, long = long, short
		}
		if len(short) == len(long) || long[len(short)] != 0 || !strings.HasPrefix(long, short) {
			return strings.Compare(a.Text, b.Text)
		}
	case a.Kind == Gram && b.Kind == Prefix:
		return -1
	case a.Kind == Prefix && b.Kind == Gram:
		return 1
	}
	return strings.Compare(a.String(), b.String())
}

// Posting is one mention of a key: the value triple inserted at line 8 of
// Figure 2, held once for all the tuples that share the LHS value.
type Posting struct {
	// Value is the number of the distinct LHS value (see List.Value).
	Value int32
	// Pos is pos_s: where the key occurs inside the value.
	Pos int32
}

// List is the inverted list of one candidate dependency.
type List struct {
	lhsVals, rhsVals []string // the columns' dictionaries

	// The eligible tuples grouped by LHS value, values numbered by first
	// eligible tuple: value v is lhsVals[dictID[v]], held by the ascending
	// tuples[runStart[v]:runStart[v+1]], whose RHS values are counted in
	// hist[histStart[v]:histStart[v+1]].
	dictID    []uint32
	runStart  []int32
	tuples    []int32
	histStart []int32
	hist      []rhsCount

	// ids[kind][pos] maps a key's text to its dense ID: one string-keyed
	// map per (kind, position) instead of one map over a struct key, so a
	// lookup hashes the text alone.
	ids  [3][]map[string]uint32
	keys []keyInfo
	// raw holds the postings in arrival (= value) order, in fixed-size
	// chunks so that growing never copies; Entries groups them by key with
	// a counting sort, which keeps that order per key.
	raw  [][]keyed
	n    int // postings inserted
	last int32
}

type rhsCount struct {
	rhs uint32
	n   int32
}

// keyInfo is a key with what Insert has learnt about it.
type keyInfo struct {
	Key
	support int32 // tuples holding a value that mentions the key
	n       int32 // postings
	last    int32 // number + 1 of the last value inserted under the key
}

// rawChunk is the number of postings per chunk of List.raw (192 KB).
const rawChunk = 1 << 14

type keyed struct {
	key uint32
	Posting
}

// Column is a dictionary-coded column as the list reads it: row r holds
// Values[IDs[r]]. The IDs are a table column's; the values are its
// dictionary's, or a copy in which the cells mining must not see are
// blank. Values may list more than the rows hold, in any order: only
// values with an eligible tuple are numbered, by first such tuple.
type Column struct {
	Values []string
	IDs    []uint32
}

// New returns the list of a candidate over its coded LHS and RHS columns,
// with the eligible tuples grouped by LHS value and no key yet. A tuple
// missing either side carries no evidence for or against any rule.
func New(lhs, rhs Column) *List {
	l := &List{lhsVals: lhs.Values, rhsVals: rhs.Values, runStart: []int32{0}, histStart: []int32{0}}
	eligible := func(t int, d uint32) bool { return lhs.Values[d] != "" && rhs.Values[rhs.IDs[t]] != "" }
	num := make([]int32, len(lhs.Values)) // LHS dictionary ID → value number + 1
	for t, d := range lhs.IDs {
		if !eligible(t, d) {
			continue
		}
		if num[d] == 0 {
			l.dictID = append(l.dictID, d)
			l.runStart = append(l.runStart, 0)
			num[d] = int32(len(l.dictID))
		}
		l.runStart[num[d]]++
	}
	for v := range l.dictID {
		l.runStart[v+1] += l.runStart[v]
	}
	l.tuples = make([]int32, l.runStart[len(l.dictID)])
	next := slices.Clone(l.runStart)
	for t, d := range lhs.IDs {
		if eligible(t, d) {
			l.tuples[next[num[d]-1]] = int32(t)
			next[num[d]-1]++
		}
	}
	l.hist = make([]rhsCount, 0, len(l.dictID))
	count := make([]int32, len(rhs.Values))
	for v := range l.dictID {
		from := len(l.hist)
		for _, t := range l.tuples[l.runStart[v]:l.runStart[v+1]] {
			u := rhs.IDs[t]
			if count[u] == 0 {
				l.hist = append(l.hist, rhsCount{rhs: u})
			}
			count[u]++
		}
		for i := from; i < len(l.hist); i++ {
			h := &l.hist[i]
			h.n, count[h.rhs] = count[h.rhs], 0
		}
		l.histStart = append(l.histStart, int32(len(l.hist)))
	}
	return l
}

// NumValues returns the number of distinct LHS values with an eligible
// tuple; they are numbered from 0 in order of their first such tuple.
func (l *List) NumValues() int { return len(l.dictID) }

// Value returns the LHS value numbered v.
func (l *List) Value(v int) string { return l.lhsVals[l.dictID[v]] }

// Keys returns the number of distinct keys inserted so far.
func (l *List) Keys() int { return len(l.keys) }

// Insert records that the key occurs at pos in the LHS value numbered
// value (line 8 of Figure 2, once for every tuple holding the value).
// Postings must arrive in non-decreasing value order — the analysis
// depends on it — so an out-of-order insert is a caller bug and panics.
func (l *List) Insert(key Key, value, pos int) {
	v := int32(value)
	if v < l.last {
		panic("invlist: postings must be inserted in value order")
	}
	l.last = v
	byPos := l.ids[key.Kind]
	if int(key.Pos) >= len(byPos) {
		byPos = append(byPos, make([]map[string]uint32, int(key.Pos)+1-len(byPos))...)
		l.ids[key.Kind] = byPos
	}
	m := byPos[key.Pos]
	if m == nil {
		m = make(map[string]uint32)
		byPos[key.Pos] = m
	}
	id, ok := m[key.Text]
	if !ok {
		id = uint32(len(l.keys))
		m[key.Text] = id
		if len(l.keys) == cap(l.keys) {
			// Double: the keys run to megabytes, where append's own 1.25×
			// steps would copy them five times over instead of twice.
			l.keys = slices.Grow(l.keys, max(len(l.keys), 256))
		}
		l.keys = append(l.keys, keyInfo{Key: key})
	}
	k := &l.keys[id]
	if k.last != v+1 {
		k.last = v + 1
		k.support += l.runStart[v+1] - l.runStart[v]
	}
	k.n++
	if l.n%rawChunk == 0 {
		l.raw = append(l.raw, make([]keyed, 0, rawChunk))
	}
	c := &l.raw[len(l.raw)-1]
	*c = append(*c, keyed{id, Posting{Value: v, Pos: int32(pos)}})
	l.n++
}

// Entry summarizes one inverted-list entry for the decision function f:
// the key, its postings, and what the tuples that mention it say.
type Entry struct {
	Key Key
	// Postings are the key's postings in value order, one per occurrence
	// in each distinct LHS value. The slice aliases the list's storage;
	// callers must not modify it.
	Postings []Posting
	// Mentions is the number of postings a per-tuple list would hold:
	// each posting counted once per tuple holding its value.
	Mentions int
	// Support is the number of distinct tuples mentioning the key.
	Support int
	// TopRHS is the RHS value paired with the key by the most distinct
	// tuples; ties break lexicographically for determinism.
	TopRHS string
	// TopCount is the number of distinct tuples pairing the key with
	// TopRHS.
	TopCount int
	// DominantLHSPos is the most frequent LHS position of the key (the
	// lowest on a tie), and PosPurity the fraction of mentions at that
	// position. Rules anchor on a position (Section 4:
	// "pattern::position, frequency").
	DominantLHSPos int
	PosPurity      float64

	l *List
}

// LHS returns the LHS value a posting of the entry was cut from.
func (e Entry) LHS(p Posting) string { return e.l.Value(int(p.Value)) }

// Values appends the numbers of the entry's distinct LHS values,
// ascending, to dst.
func (e Entry) Values(dst []int32) []int32 {
	prev := int32(-1)
	for _, p := range e.Postings {
		if p.Value != prev {
			dst = append(dst, p.Value)
			prev = p.Value
		}
	}
	return dst
}

// InTupleOrder calls yield for the entry's mentions in the order a
// per-tuple list holds them — by tuple, a tuple's repeats in order of
// occurrence — until yield returns false. It merges the values' tuple
// runs through a heap; values are numbered by first tuple, so a value
// joins the merge only when the walk reaches that tuple, and a walk that
// stops after k mentions has looked at no more than k values.
func (e Entry) InTupleOrder(yield func(tuple int32, p Posting) bool) {
	type run struct {
		at, end int32 // the value's tuples still to come: l.tuples[at:end]
		lo, hi  int   // its postings: e.Postings[lo:hi]
	}
	l := e.l
	var heap []run // min-heap on l.tuples[at]
	less := func(i, j int) bool { return l.tuples[heap[i].at] < l.tuples[heap[j].at] }
	for next := 0; next < len(e.Postings) || len(heap) > 0; {
		if next < len(e.Postings) {
			v := e.Postings[next].Value
			if len(heap) == 0 || l.tuples[l.runStart[v]] < l.tuples[heap[0].at] {
				r := run{at: l.runStart[v], end: l.runStart[v+1], lo: next}
				for next++; next < len(e.Postings) && e.Postings[next].Value == v; next++ {
				}
				r.hi = next
				heap = append(heap, r)
				for i := len(heap) - 1; i > 0 && less(i, (i-1)/2); i = (i - 1) / 2 {
					heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
				}
				continue
			}
		}
		r := &heap[0]
		for _, p := range e.Postings[r.lo:r.hi] {
			if !yield(l.tuples[r.at], p) {
				return
			}
		}
		if r.at++; r.at == r.end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		for i := 0; ; {
			c := 2*i + 1
			if c+1 < len(heap) && less(c+1, c) {
				c++
			}
			if c >= len(heap) || !less(c, i) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
}

// Entries analyzes the keys whose support reaches minSupport and returns
// their entries sorted by descending support and then key, so discovery
// examines strong keys first. A tuple contributes one support unit and
// one RHS vote per key however many times it mentions the key; every
// mention counts towards the position histogram. Both majorities break
// ties independently of arrival order (the smallest RHS, the lowest
// position), so the weighted counts are the per-tuple list's exactly.
func (l *List) Entries(minSupport int) []Entry {
	// Group the kept keys' postings by key: Insert counted them; prefix-sum
	// and scatter. Afterwards next[k] is where key k's postings end.
	next := make([]int32, len(l.keys))
	var order []uint32
	total := int32(0)
	for k := range l.keys {
		if int(l.keys[k].support) < minSupport {
			next[k] = -1
			continue
		}
		next[k] = total
		total += l.keys[k].n
		order = append(order, uint32(k))
	}
	grouped := make([]Posting, total)
	for _, chunk := range l.raw {
		for _, p := range chunk {
			if i := next[p.key]; i >= 0 {
				grouped[i] = p.Posting
				next[p.key] = i + 1
			}
		}
	}

	// Order the keys before analyzing them, by sorting key IDs: a swap
	// moves 4 bytes and each Entry is written once, in its final place.
	slices.SortFunc(order, func(a, b uint32) int {
		if sa, sb := l.keys[a].support, l.keys[b].support; sa != sb {
			return int(sb - sa)
		}
		return Compare(l.keys[a].Key, l.keys[b].Key)
	})

	out := make([]Entry, len(order))
	rhsCount := make([]int32, len(l.rhsVals))
	var posCount []int32
	for i, k := range order {
		ki := &l.keys[k]
		ps := grouped[next[k]-ki.n : next[k]]
		e := Entry{Key: ki.Key, Postings: ps, Support: int(ki.support), l: l}
		topID, bestPos, bestN := uint32(0), 0, int32(0)
		prev := int32(-1)
		for _, p := range ps {
			if p.Value != prev {
				prev = p.Value
				for _, h := range l.hist[l.histStart[p.Value]:l.histStart[p.Value+1]] {
					rhsCount[h.rhs] += h.n
					c := int(rhsCount[h.rhs])
					if c > e.TopCount || (c == e.TopCount && h.rhs != topID && l.rhsVals[h.rhs] < l.rhsVals[topID]) {
						topID, e.TopCount = h.rhs, c
					}
				}
			}
			held := l.runStart[p.Value+1] - l.runStart[p.Value]
			e.Mentions += int(held)
			if int(p.Pos) >= len(posCount) {
				posCount = append(posCount, make([]int32, int(p.Pos)+1-len(posCount))...)
			}
			posCount[p.Pos] += held
			if n := posCount[p.Pos]; n > bestN || (n == bestN && int(p.Pos) < bestPos) {
				bestPos, bestN = int(p.Pos), n
			}
		}
		for _, p := range ps {
			posCount[p.Pos] = 0
			for _, h := range l.hist[l.histStart[p.Value]:l.histStart[p.Value+1]] {
				rhsCount[h.rhs] = 0
			}
		}
		e.TopRHS = l.rhsVals[topID]
		e.DominantLHSPos = bestPos
		e.PosPurity = float64(bestN) / float64(e.Mentions)
		out[i] = e
	}
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
