// Package invlist implements the hash-based inverted list H of the
// discovery algorithm (Figure 2, lines 4–8): a map from an LHS token,
// prefix or n-gram to the postings that mention it. Each posting records
// the tuple id, the position of the key inside the LHS value, and the
// corresponding RHS value.
//
// The list is built for one candidate dependency A → B over dictionary-
// coded columns, and its layout relies on two facts about that setting:
//
//   - every tuple has exactly one RHS value, fixed when the list is
//     created (New takes the tuple → RHS-ID column), so a posting carries
//     an RHS ID instead of a string and "distinct (tuple, RHS) pairs" are
//     just distinct tuples;
//   - postings arrive in tuple order (Insert enforces it), so each key's
//     postings are sorted by tuple, a tuple's repeats under one key are
//     adjacent, and the distinct-tuple list of an entry — what extensional
//     de-duplication and subset pruning compare — is its posting list
//     with adjacent repeats skipped.
//
// Together they make entry analysis one linear scan per key over flat
// arrays with reusable counters indexed by RHS ID and by position: no
// per-key maps, no per-key allocations.
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

// Posting is the value triple inserted at line 8 of Figure 2.
type Posting struct {
	// Tuple is id(t).
	Tuple int32
	// Pos is pos_s: where the key occurs inside t[A].
	Pos int32
	// RHS is the ID of u = t[B] in the list's RHS dictionary.
	RHS uint32
}

// List is the inverted list of one candidate dependency.
type List struct {
	rhsOf   []uint32 // tuple → RHS value ID
	rhsVals []string // RHS dictionary

	// ids[kind][pos] maps a key's text to its dense ID: one string-keyed
	// map per (kind, position) instead of one map over a struct key, so a
	// lookup hashes the text alone.
	ids  [3][]map[string]uint32
	keys []Key
	// raw holds the postings in arrival (= tuple) order, in fixed-size
	// chunks so that growing never copies; Entries groups them by key with
	// a counting sort, which keeps that order per key.
	raw  [][]keyed
	n    int // postings inserted
	last int32
}

// rawChunk is the number of postings per chunk of List.raw (256 KB).
const rawChunk = 1 << 14

type keyed struct {
	key uint32
	Posting
}

// New returns an empty list for tuples whose RHS values are given by
// rhsOf (tuple → ID) and rhsVals (ID → value).
func New(rhsOf []uint32, rhsVals []string) *List {
	return &List{rhsOf: rhsOf, rhsVals: rhsVals}
}

// KeyID returns the dense ID of a key, assigning the next one on first
// sight. A caller that decomposes each distinct LHS value once keeps the
// IDs and inserts a posting per tuple without hashing the key again.
func (l *List) KeyID(k Key) uint32 {
	byPos := l.ids[k.Kind]
	if int(k.Pos) >= len(byPos) {
		byPos = append(byPos, make([]map[string]uint32, int(k.Pos)+1-len(byPos))...)
		l.ids[k.Kind] = byPos
	}
	m := byPos[k.Pos]
	if m == nil {
		m = make(map[string]uint32)
		byPos[k.Pos] = m
	}
	id, ok := m[k.Text]
	if !ok {
		id = uint32(len(l.keys))
		m[k.Text] = id
		if len(l.keys) == cap(l.keys) {
			// Double: the keys run to megabytes, where append's own 1.25×
			// steps would copy them five times over instead of twice.
			l.keys = slices.Grow(l.keys, max(len(l.keys), 256))
		}
		l.keys = append(l.keys, k)
	}
	return id
}

// Insert appends a posting under the key (line 8 of Figure 2); the RHS is
// the tuple's. Postings must arrive in non-decreasing tuple order — the
// analysis depends on it — so an out-of-order insert is a caller bug and
// panics.
func (l *List) Insert(key uint32, tuple, pos int) {
	t := int32(tuple)
	if t < l.last {
		panic("invlist: postings must be inserted in tuple order")
	}
	l.last = t
	if l.n%rawChunk == 0 {
		l.raw = append(l.raw, make([]keyed, 0, rawChunk))
	}
	c := &l.raw[len(l.raw)-1]
	*c = append(*c, keyed{key, Posting{Tuple: t, Pos: int32(pos), RHS: l.rhsOf[tuple]}})
	l.n++
}

// Entry summarizes one inverted-list entry for the decision function f:
// the key, its postings, the distinct tuples mentioning it, and the
// majority of the RHS histogram.
type Entry struct {
	Key Key
	// Postings are the key's postings in tuple order. The slice aliases
	// the list's storage; callers must not modify it.
	Postings []Posting
	// Support is the number of distinct tuples mentioning the key.
	Support int
	// TopRHS is the RHS value paired with the key by the most distinct
	// tuples; ties break lexicographically for determinism.
	TopRHS string
	// TopCount is the number of distinct tuples pairing the key with
	// TopRHS.
	TopCount int
	// DominantLHSPos is the most frequent LHS position of the key (the
	// lowest on a tie), and PosPurity the fraction of postings at that
	// position. Rules anchor on a position (Section 4:
	// "pattern::position, frequency").
	DominantLHSPos int
	PosPurity      float64
}

// Tuples appends the entry's distinct tuple ids, ascending, to dst.
func (e Entry) Tuples(dst []int32) []int32 {
	prev := int32(-1)
	for _, p := range e.Postings {
		if p.Tuple != prev {
			dst = append(dst, p.Tuple)
			prev = p.Tuple
		}
	}
	return dst
}

// Entries analyzes every key and returns the entries sorted by descending
// support and then key, so discovery examines strong keys first. A tuple
// contributes one support unit and one RHS vote per key however many
// times it mentions the key; every mention counts towards the position
// histogram.
func (l *List) Entries() []Entry {
	// Group the postings by key: count, prefix-sum, scatter.
	start := make([]int32, len(l.keys)+1)
	for _, chunk := range l.raw {
		for _, p := range chunk {
			start[p.key+1]++
		}
	}
	for k := range l.keys {
		start[k+1] += start[k]
	}
	grouped := make([]Posting, l.n)
	next := slices.Clone(start[:len(l.keys)])
	for _, chunk := range l.raw {
		for _, p := range chunk {
			grouped[next[p.key]] = p.Posting
			next[p.key]++
		}
	}

	// Order the keys before analyzing them, by sorting key IDs on a
	// support column: a swap moves 4 bytes, a comparison touches a count
	// and a key rather than whole entries, and each Entry is written once,
	// in its final place.
	support := make([]int32, len(l.keys))
	order := make([]uint32, len(l.keys))
	for k := range l.keys {
		order[k] = uint32(k)
		prev := int32(-1)
		for _, p := range grouped[start[k]:start[k+1]] {
			if p.Tuple != prev {
				prev = p.Tuple
				support[k]++
			}
		}
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if support[a] != support[b] {
			return int(support[b] - support[a])
		}
		return Compare(l.keys[a], l.keys[b])
	})

	out := make([]Entry, len(order))
	rhsCount := make([]int32, len(l.rhsVals))
	var posCount []int32
	for i, k := range order {
		ps := grouped[start[k]:start[k+1]]
		e := Entry{Key: l.keys[k], Postings: ps, Support: int(support[k])}
		topID, bestPos, bestN := uint32(0), 0, int32(0)
		prev := int32(-1)
		for _, p := range ps {
			if p.Tuple != prev {
				prev = p.Tuple
				rhsCount[p.RHS]++
				c := int(rhsCount[p.RHS])
				if c > e.TopCount || (c == e.TopCount && p.RHS != topID && l.rhsVals[p.RHS] < l.rhsVals[topID]) {
					topID, e.TopCount = p.RHS, c
				}
			}
			if int(p.Pos) >= len(posCount) {
				posCount = append(posCount, make([]int32, int(p.Pos)+1-len(posCount))...)
			}
			posCount[p.Pos]++
			if n := posCount[p.Pos]; n > bestN || (n == bestN && int(p.Pos) < bestPos) {
				bestPos, bestN = int(p.Pos), n
			}
		}
		for _, p := range ps {
			rhsCount[p.RHS] = 0
			posCount[p.Pos] = 0
		}
		if len(ps) > 0 {
			e.TopRHS = l.rhsVals[topID]
			e.DominantLHSPos = bestPos
			e.PosPurity = float64(bestN) / float64(len(ps))
		}
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
