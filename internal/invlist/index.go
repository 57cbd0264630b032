package invlist

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/tokenize"
)

// Cut says how an index cuts a column's values into keys: tokens, or the
// prefixes of up to MaxPrefix runes and the interior NGramN-grams.
type Cut struct {
	Tokens            bool
	NGramN, MaxPrefix int
	// MinSupport is the floor: lists get postings only for the keys that
	// many eligible tuples hold, and a prefix that fewer rows of the whole
	// column hold is only counted.
	MinSupport int
}

// Index is the key index of one LHS column: each distinct value's keys,
// cut once and read by the list of every candidate with that LHS — what
// a candidate adds (eligible tuples, weights, RHS histograms) New
// computes. It is read-only after NewIndex, so safe for concurrent use.
//
// Prefixes are found without a hash: sorted, the values that share a
// k-rune prefix are one contiguous run, so one scan finds them all. A run
// that fewer than MinSupport rows of the column hold can reach the floor
// under no candidate — eligible support never exceeds it — so it never
// becomes a key, and lists count it from the sorted order (prefixRuns).
// Tokens and interior n-grams take one lookup per (value, occurrence).
type Index struct {
	col   Column
	floor int32
	keys  []Key
	// order[k] is key k's place in Compare order among the keys the column
	// holds at least floor times, the only ones a list can keep.
	order []uint32
	// occ[occStart[d]:occStart[d+1]] are dictionary value d's keys, in the
	// order they occur in it.
	occStart []int32
	occ      []occurrence
	// The values in prefix order: rank[d] is value d's place (-1: none);
	// at place r a value has depth[r] prefixes and shares shared[r] of
	// them with the value before. runs counts the prefix runs, keys or
	// not; the prefix keys are keys 0 to prefixKeys-1.
	rank          []int32
	depth, shared []int32
	runs          int
	prefixKeys    int
}

// occurrence is one key cut from a value. The later occurrences of a
// token that recurs in a value carry the repeat bit: a value adds its
// tuples to a key's support once.
type occurrence struct {
	key uint32
	pos int32
}

const (
	repeat  = 1 << 31
	keyMask = repeat - 1
)

type builder struct {
	*Index
	counts []int32 // rows holding each dictionary value
	total  []int32 // key → rows holding it
	// Tokens and n-grams of fewer than 8 bytes, packed with their length
	// into one word, in a flat open-addressing table (a power of two of
	// slots, at most half used); longer ones in a map.
	slots []slot
	used  int
	long  map[Key]uint32
}

type slot struct {
	text uint64
	pos  int32
	id   uint32 // key ID + 1; 0: free
}

// NewIndex cuts every value of col that some row holds. ctx is checked
// every 8192 values; a cancelled build returns ctx.Err().
func NewIndex(ctx context.Context, col Column, cut Cut) (*Index, error) {
	b := builder{Index: &Index{col: col, floor: int32(cut.MinSupport), occStart: make([]int32, len(col.Values)+1)}}
	b.counts = make([]int32, len(col.Values))
	for _, d := range col.IDs {
		b.counts[d]++
	}
	held := func(d int) bool { return b.counts[d] > 0 && col.Values[d] != "" }
	var prefixes []uint32 // at rank r, key ID + 1 of the k-rune prefix at r*MaxPrefix+k-1; 0: none
	if !cut.Tokens {
		var err error
		if prefixes, err = b.prefixRuns(ctx, held, cut.MaxPrefix); err != nil {
			return nil, err
		}
		n := len(prefixes) - zeros(prefixes) // the occurrences: prefixes, then n-grams
		for d, v := range col.Values {
			if held(d) {
				n += max(utf8.RuneCountInString(v)-max(cut.NGramN, 1), 0)
			}
		}
		b.occ = make([]occurrence, 0, n)
	}
	var toks []tokenize.Token
	var seen []int32 // token key ID → 1 + the value it last occurred in
	for d, v := range col.Values {
		if d&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch {
		case !held(d):
		case cut.Tokens:
			toks = tokenize.AppendTokens(toks[:0], v, tokenize.DefaultDelims)
			for _, tok := range toks {
				o := occurrence{key: b.id(Key{Kind: Token, Text: tok.Text}), pos: int32(tok.Pos)}
				if int(o.key) == len(seen) {
					seen = append(seen, 0)
				}
				if seen[o.key] == int32(d)+1 {
					o.key |= repeat
				} else {
					seen[o.key] = int32(d) + 1
					b.total[o.key] += b.counts[d]
				}
				b.occ = append(b.occ, o)
			}
		default:
			r := int(b.rank[d]) * cut.MaxPrefix
			for _, id := range prefixes[r : r+cut.MaxPrefix] {
				if id != 0 {
					b.occ = append(b.occ, occurrence{key: id - 1})
				}
			}
			toks = tokenize.AppendNGrams(toks[:0], v, cut.NGramN)
			for _, tok := range toks[1:] { // toks[0], at position 0, is a prefix
				id := b.id(Key{Kind: Gram, Pos: int32(tok.Pos), Text: tok.Text})
				b.total[id] += b.counts[d]
				b.occ = append(b.occ, occurrence{key: id, pos: int32(tok.Pos)})
			}
		}
		b.occStart[d+1] = int32(len(b.occ))
	}
	b.sortKeys()
	return b.Index, nil
}

func zeros(ids []uint32) (n int) {
	for _, id := range ids {
		if id == 0 {
			n++
		}
	}
	return n
}

// id returns the ID of a token or n-gram key, adding the key if it is new.
func (b *builder) id(k Key) uint32 {
	if len(k.Text) >= 8 {
		id, ok := b.long[k]
		if !ok {
			if b.long == nil {
				b.long = make(map[Key]uint32)
			}
			id = b.key(k, 0)
			b.long[k] = id
		}
		return id
	}
	if 2*(b.used+1) > len(b.slots) {
		old := b.slots
		b.slots = make([]slot, max(2*len(old), 1024))
		for _, s := range old {
			if s.id != 0 {
				*b.slot(s.text, s.pos) = s
			}
		}
	}
	text := headOf(k.Text) | uint64(len(k.Text))
	s := b.slot(text, k.Pos)
	if s.id == 0 {
		*s = slot{text: text, pos: k.Pos, id: b.key(k, 0) + 1}
		b.used++
	}
	return s.id - 1
}

// slot returns the slot of (text, pos), or the free one it would take.
func (b *builder) slot(text uint64, pos int32) *slot {
	mask := uint64(len(b.slots) - 1)
	// Fibonacci hashing: the product's top bits mix every bit of the key.
	for i := (text ^ uint64(pos)<<32) * 0x9e3779b97f4a7c15 >> (64 - bits.Len64(mask)); ; i = (i + 1) & mask {
		if s := &b.slots[i]; s.id == 0 || s.text == text && s.pos == pos {
			return s
		}
	}
}

// key adds a key that support rows hold so far.
func (b *builder) key(k Key, support int32) uint32 {
	b.keys = append(b.keys, k)
	b.total = append(b.total, support)
	return uint32(len(b.keys) - 1)
}

// sortKeys fills order: the keys a list can keep, sorted by their
// rendering (see Compare).
func (b *builder) sortKeys() {
	sorted := make([]headed, 0, len(b.keys))
	var buf []byte
	for k, n := range b.total {
		if key := b.keys[k]; n >= b.floor {
			switch buf = buf[:0]; key.Kind {
			case Prefix:
				buf = append(append(buf, "p\x00"...), key.Text...)
			case Gram:
				buf = strconv.AppendInt(append(append(append(buf, "g\x00"...), key.Text...), 0), int64(key.Pos), 10)
			default:
				buf = append(buf, key.Text...)
			}
			sorted = append(sorted, headed{headOf(string(buf)), uint32(k)})
		}
	}
	sortHeaded(sorted, func(i, j uint32) int { return Compare(b.keys[i], b.keys[j]) })
	b.order = make([]uint32, len(b.keys))
	for i, s := range sorted {
		b.order[s.id] = uint32(i)
	}
}

// prefixRuns sorts the held values by their first maxPrefix runes
// (sanitized), so that every shorter prefix's values are contiguous too,
// and scans them once, keeping one open run per length: a value that
// does not share a run's prefix closes it and opens the next. A closed
// run the floor admits becomes a key its values record; the others are
// only counted.
func (b *builder) prefixRuns(ctx context.Context, held func(int) bool, K int) ([]uint32, error) {
	sorted := make([]headed, 0, len(b.col.Values))
	texts := make([]string, len(b.col.Values)) // each value's longest prefix
	var toks []tokenize.Token
	for d, v := range b.col.Values {
		if held(d) {
			if toks = tokenize.AppendPrefixes(toks[:0], v, K); len(toks) > 0 {
				texts[d] = toks[len(toks)-1].Text
				sorted = append(sorted, headed{headOf(texts[d]), uint32(d)})
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sortHeaded(sorted, func(a, c uint32) int { return strings.Compare(texts[a], texts[c]) })

	b.rank = make([]int32, len(b.col.Values))
	for d := range b.rank {
		b.rank[d] = -1
	}
	b.depth, b.shared = make([]int32, len(sorted)), make([]int32, len(sorted))
	keys := make([]uint32, len(sorted)*K)
	type run struct {
		from, rows int32 // where it opened, and the rows held by the values before it
		text       string
	}
	open := make([]run, 0, K)
	rows := int32(0)
	closeRuns := func(k, to int) { // close the runs longer than k runes before place to
		for j := len(open) - 1; j >= k; j-- {
			o := open[j]
			if b.runs++; rows-o.rows >= b.floor {
				id := b.key(Key{Kind: Prefix, Text: o.text}, rows-o.rows) + 1
				for r := int(o.from); r < to; r++ {
					keys[r*K+j] = id
				}
			}
		}
		open = open[:k]
	}
	prev := ""
	for r, s := range sorted {
		text := texts[s.id]
		b.rank[s.id] = int32(r)
		lcp := 0
		for lcp < len(prev) && lcp < len(text) && prev[lcp] == text[lcp] {
			lcp++
		}
		k, end := 0, 0 // the runes inside the shared bytes: their runs go on
		for end < len(text) {
			_, w := utf8.DecodeRuneInString(text[end:])
			if end+w > lcp {
				break
			}
			end, k = end+w, k+1
		}
		closeRuns(min(k, len(open)), r)
		b.shared[r] = int32(k)
		for end < len(text) {
			_, w := utf8.DecodeRuneInString(text[end:])
			end += w
			open = append(open, run{from: int32(r), rows: rows, text: text[:end]})
		}
		rows += b.counts[s.id]
		b.depth[r] = int32(len(open))
		prev = text
	}
	closeRuns(0, len(sorted))
	b.prefixKeys = len(b.keys)
	return keys, nil
}

// headed is an item sorted by the big-endian first 8 bytes of a string.
type headed struct {
	head uint64
	id   uint32
}

// headOf packs the first 8 bytes of s big-endian, zero-padded: of two
// strings whose heads differ, the smaller head is the smaller string.
func headOf(s string) uint64 {
	var h uint64
	for i := range 8 {
		h <<= 8
		if i < len(s) {
			h |= uint64(s[i])
		}
	}
	return h
}

// sortHeaded sorts items by head, and items with equal heads by tie: a
// radix sort, least significant byte first and skipping the bytes every
// head shares, where comparing strings costs a log factor of cache misses.
func sortHeaded(items []headed, tie func(a, b uint32) int) {
	sortByHead(items, func(h headed) uint64 { return h.head })
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].head == items[i].head {
			j++
		}
		slices.SortFunc(items[i:j], func(a, c headed) int { return tie(a.id, c.id) })
		i = j
	}
}

// sortByHead sorts items by head, stably.
func sortByHead[T any](items []T, head func(T) uint64) {
	if len(items) < 256 { // clearing the counters would cost more than comparing
		slices.SortStableFunc(items, func(a, b T) int { return cmp.Compare(head(a), head(b)) })
		return
	}
	src, dst := items, make([]T, len(items))
	for shift := 0; shift < 64; shift += 8 {
		var at [257]int
		for _, it := range src {
			at[int(byte(head(it)>>shift))+1]++
		}
		if at[int(byte(head(src[0])>>shift))+1] == len(src) {
			continue
		}
		for c := 1; c < len(at); c++ {
			at[c] += at[c-1]
		}
		for _, it := range src {
			c := byte(head(it) >> shift)
			dst[at[c]] = it
			at[c]++
		}
		src, dst = dst, src
	}
	copy(items, src)
}
