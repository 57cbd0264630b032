// Package invlist implements the hash-based inverted list H of the
// discovery algorithm (Figure 2, lines 4–8): a map from an LHS token,
// prefix or n-gram to the postings that mention it.
//
// The paper inserts one posting per (key, tuple). Every consumer reads
// only that bag's set with multiplicities — how many tuples mention a key,
// with which RHS values, at which positions — so the list stores one
// posting per (key, distinct LHS value, occurrence) and weights it by the
// tuples that hold the value. The keys depend on the LHS column alone, so
// they are cut once per column, and every candidate A → B built on it
// does only the per-pair work:
//
//   - NewIndex cuts each distinct value of a column into its keys (see
//     Index) and is shared by the column's candidates;
//   - New groups the candidate's eligible tuples (non-empty A and B) by
//     distinct A value. Values are numbered by first eligible tuple, and
//     each keeps its ascending tuple run and its histogram of B values.
//     It sums each key's support over the eligible values and lays out
//     the postings of the keys at or above the floor, grouped by key and
//     sorted by value, so the distinct values of an entry — what
//     extensional de-duplication and subset pruning compare — are its
//     postings with adjacent repeats skipped. Every numbered value has a
//     tuple, so two entries' value sets are equal, or nested, exactly
//     when their tuple sets are;
//   - Entries analyzes those keys, each in one scan with reusable
//     counters indexed by RHS ID and by position: no per-key maps, no
//     per-key allocations.
//
// The two questions that are about tuple order ("the first 64 mentions")
// are answered by Entry.InTupleOrder, a lazy merge of the tuple runs.
package invlist

import (
	"bytes"
	"math"
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
	idx     *Index
	rhsVals []string // the RHS column's dictionary

	// The eligible tuples grouped by LHS value, values numbered by first
	// eligible tuple: value v is dictionary value dictID[v], held by the
	// ascending tuples[starts[v].run:starts[v+1].run], whose RHS values are
	// counted in hist[starts[v].hist:starts[v+1].hist].
	dictID []uint32
	starts []start
	tuples []int32
	hist   []rhsCount

	keys int // keys with an eligible tuple
	// The keys at or above the floor in entry order, with their support
	// and their postings grouped[from:to], in value order.
	kept    []keptKey
	grouped []Posting
}

// start is where a value's tuples and RHS counts start; both end where
// the next value's start. A value's two reads share a cache line.
type start struct{ run, hist int32 }

type rhsCount struct {
	rhs uint32
	n   int32
}

type keptKey struct {
	ord               uint64 // the entry order: support descending, then key
	id                uint32
	support, from, to int32
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

// New returns the list of a candidate over the index of its LHS column
// and its coded RHS column. It groups the eligible tuples by LHS value —
// a tuple missing either side carries no evidence for or against any
// rule — weights each value's keys by its tuples, and materialises the
// postings of the keys whose support reaches the index's floor.
func New(idx *Index, rhs Column) *List {
	lhs := idx.col
	l := &List{idx: idx, rhsVals: rhs.Values, starts: make([]start, 1, len(lhs.Values)+1)}
	eligible := func(t int, d uint32) bool {
		return lhs.Values[d] != "" && rhs.Values[rhs.IDs[t]] != ""
	}
	num := make([]int32, len(lhs.Values)) // LHS dictionary ID → value number + 1
	for t, d := range lhs.IDs {
		if !eligible(t, d) {
			continue
		}
		if num[d] == 0 {
			l.dictID = append(l.dictID, d)
			l.starts = append(l.starts, start{})
			num[d] = int32(len(l.dictID))
		}
		l.starts[num[d]].run++
	}
	next := make([]int32, len(l.dictID)) // where value v's next tuple goes
	for v := range l.dictID {
		l.starts[v+1].run += l.starts[v].run
		next[v] = l.starts[v].run
	}
	l.tuples = make([]int32, l.starts[len(l.dictID)].run)
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
		for _, t := range l.tuples[l.starts[v].run:l.starts[v+1].run] {
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
		l.starts[v+1].hist = int32(len(l.hist))
	}
	l.keep()
	return l
}

// keep sums each key's support over the eligible values, counts the keys
// that have any — the prefixes that are no key of the index included —
// and groups the postings of those at or above the floor: it counts them
// per key, lays the keys out in ID order and scatters the postings in
// value order. The kept keys end in entry order.
func (l *List) keep() {
	x := l.idx
	support := make([]int32, len(x.keys))
	n := make([]int32, len(x.keys))
	for v, d := range l.dictID {
		w := l.starts[v+1].run - l.starts[v].run
		for _, o := range x.occ[x.occStart[d]:x.occStart[d+1]] {
			k := o.key & keyMask
			if o.key&repeat == 0 {
				support[k] += w
			}
			n[k]++
		}
	}
	kept, prefixes := 0, 0
	for _, s := range support {
		if s >= x.floor && s > 0 {
			kept++
		}
	}
	l.kept = make([]keptKey, 0, kept)
	total := int32(0)
	for k, s := range support {
		if s == 0 {
			continue
		}
		l.keys++
		if k < x.prefixKeys {
			prefixes++
		}
		if s < x.floor {
			n[k] = -1
			continue
		}
		ord := uint64(math.MaxInt32-s)<<32 | uint64(x.order[k])
		l.kept = append(l.kept, keptKey{ord: ord, id: uint32(k), support: s, from: total, to: total + n[k]})
		n[k], total = total, total+n[k] // n[k] is now where the next posting goes
	}
	l.keys += l.prefixRuns() - prefixes // the prefixes that are no key
	l.grouped = make([]Posting, total)
	for v, d := range l.dictID {
		for _, o := range x.occ[x.occStart[d]:x.occStart[d+1]] {
			if k := o.key & keyMask; n[k] >= 0 {
				l.grouped[n[k]] = Posting{Value: int32(v), Pos: o.pos}
				n[k]++
			}
		}
	}
	sortByHead(l.kept, func(k keptKey) uint64 { return k.ord })
}

// prefixRuns counts the distinct prefixes of the eligible values: in
// prefix order, each eligible value adds those of its prefixes that the
// eligible value before it lacks, and two values share as many prefixes
// as the values between them all share with their predecessors.
func (l *List) prefixRuns() int {
	x := l.idx
	if x.runs == 0 || len(x.depth) == len(l.dictID) {
		return x.runs
	}
	eligible := make([]bool, len(x.depth))
	for _, d := range l.dictID {
		eligible[x.rank[d]] = true
	}
	n, shared := 0, int32(0)
	for r, ok := range eligible {
		shared = min(shared, x.shared[r])
		if ok {
			n += int(x.depth[r] - shared)
			shared = math.MaxInt32
		}
	}
	return n
}

// Value returns the LHS value numbered v: the values with an eligible
// tuple are numbered from 0 in order of their first such tuple.
func (l *List) Value(v int) string { return l.idx.col.Values[l.dictID[v]] }

// Keys returns the number of distinct keys that occur in a value with an
// eligible tuple, those below the floor included.
func (l *List) Keys() int { return l.keys }

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

// Token returns the text of the token at position pos of the value a
// posting was cut from, in a list of tokens; "" if there is none.
func (e Entry) Token(p Posting, pos int) string {
	x := e.l.idx
	d := e.l.dictID[p.Value]
	if pos < 0 || pos >= int(x.occStart[d+1]-x.occStart[d]) {
		return ""
	}
	return x.keys[x.occ[int(x.occStart[d])+pos].key&keyMask].Text
}

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
			if len(heap) == 0 || l.tuples[l.starts[v].run] < l.tuples[heap[0].at] {
				r := run{at: l.starts[v].run, end: l.starts[v+1].run, lo: next}
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

// Entries analyzes the keys whose support reaches the floor and returns
// their entries sorted by descending support and then key, so discovery
// examines strong keys first. A tuple contributes one support unit and
// one RHS vote per key however many times it mentions the key; every
// mention counts towards the position histogram. Both majorities break
// ties independently of arrival order (the smallest RHS, the lowest
// position), so the weighted counts are the per-tuple list's exactly.
func (l *List) Entries() []Entry {
	keys := l.idx.keys
	out := make([]Entry, len(l.kept))
	rhsCount := make([]int32, len(l.rhsVals))
	var posCount []int32
	var voted []uint32 // the RHS values with a vote for the current key
	for i, k := range l.kept {
		ps := l.grouped[k.from:k.to]
		e := Entry{Key: keys[k.id], Postings: ps, Support: int(k.support), l: l}
		topID, bestPos, bestN := uint32(0), 0, int32(0)
		prev := int32(-1)
		for _, p := range ps {
			from, to := l.starts[p.Value], l.starts[p.Value+1]
			if p.Value != prev {
				prev = p.Value
				for _, h := range l.hist[from.hist:to.hist] {
					if rhsCount[h.rhs] == 0 {
						voted = append(voted, h.rhs)
					}
					rhsCount[h.rhs] += h.n
				}
			}
			held := to.run - from.run
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
		}
		for _, u := range voted {
			if c := int(rhsCount[u]); c > e.TopCount || c == e.TopCount && l.rhsVals[u] < l.rhsVals[topID] {
				topID, e.TopCount = u, c
			}
			rhsCount[u] = 0
		}
		voted = voted[:0]
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
