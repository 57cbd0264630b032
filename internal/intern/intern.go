// Package intern provides per-column string interning: a dictionary
// mapping each distinct cell value to a dense uint32 ID, with the value
// bytes owned by an arena so the dictionary never pins its callers'
// buffers (a substring handed to Intern would otherwise keep its whole
// parent string alive).
//
// IDs are append-only and never reused or renumbered: deleting rows from
// a table compacts the per-row ID vector but leaves the dictionary
// untouched, so an ID held by a cache (a DFA verdict, an extraction
// memo) stays valid for the lifetime of the dictionary. Detection
// compares IDs instead of strings; two cells are equal iff their IDs
// are.
//
// A Dict is not internally synchronized. The intended discipline matches
// the table it indexes: mutation (Intern) happens in exclusive phases,
// reads (Value, Lookup) may then run concurrently.
package intern

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// arenaChunk is the allocation granularity of the value arena, which a
// dictionary reaches by doubling from arenaFirst: every column of every
// table has a dictionary, and most hold a few short values. Chunks are
// never grown in place — a full chunk is retired and a new one started —
// so unsafe.String views into a chunk stay valid forever.
const (
	arenaFirst = 256
	arenaChunk = 64 << 10
)

// minIndex is the slot count of an empty dictionary's index.
const minIndex = 8

// seed keys the index's hash; it differs from process to process, so no
// input can be chosen offline to collide in every process.
var seed = maphash.MakeSeed()

// Dict is one column's value dictionary.
//
// The index is open addressing with linear probing over a power-of-two
// slot array holding no pointers: a slot is 0 when empty, else a value's
// 32-bit hash tag above its ID+1. The tag picks the home slot and settles
// almost every probe without reading the value, and growing re-places
// slots by their tags without hashing a value again. The index is at most
// three quarters full, so past its first 8 slots it costs 11 to 21 bytes
// a value; the map[string]uint32 it replaced cost 25 bytes a slot at up
// to seven eighths full, at least 28 a value. Only Intern and Lookup read
// the index; a View of the table reads vals alone, and no vals entry or
// arena byte is ever rewritten.
type Dict struct {
	index []uint64
	vals  []string // id -> value, views into the arena
	cur   []byte   // current arena chunk; len grows toward cap, never realloc'd
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newSized(0, 0) }

// newSized returns an empty dictionary with room for n values of size
// bytes in all: the index never grows below n values, nor the arena below
// size bytes.
func newSized(n, size int) *Dict {
	slots := minIndex
	for 4*n > 3*slots {
		slots *= 2
	}
	return &Dict{index: make([]uint64, slots), vals: make([]string, 0, n), cur: make([]byte, 0, size)}
}

// tagOf is the index's hash of s.
func tagOf(s string) uint32 { return uint32(maphash.String(seed, s)) }

// find returns the slot holding s, or the empty slot where s would go.
func (d *Dict) find(s string, tag uint32) (slot int, id uint32, ok bool) {
	mask := len(d.index) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := d.index[i]
		if e == 0 {
			return i, 0, false
		}
		if uint32(e>>32) == tag && d.vals[uint32(e)-1] == s {
			return i, uint32(e) - 1, true
		}
	}
}

// place writes slot entry e into the first empty slot from its home.
func place(index []uint64, e uint64) {
	mask := len(index) - 1
	i := int(e>>32) & mask
	for index[i] != 0 {
		i = (i + 1) & mask
	}
	index[i] = e
}

// Len returns the number of distinct values interned so far. IDs are the
// dense range [0, Len).
func (d *Dict) Len() int { return len(d.vals) }

// Intern returns the ID for s, assigning the next dense ID on first
// sight. The stored value bytes are copied into the arena; s itself is
// not retained.
func (d *Dict) Intern(s string) uint32 {
	tag := tagOf(s)
	slot, id, ok := d.find(s, tag)
	if ok {
		return id
	}
	if len(s) > cap(d.cur)-len(d.cur) {
		size := max(len(s), min(arenaChunk, max(arenaFirst, 2*cap(d.cur))))
		d.cur = make([]byte, 0, size)
	}
	start := len(d.cur)
	d.cur = append(d.cur, s...)
	return d.add(unsafe.String(unsafe.SliceData(d.cur[start:]), len(s)), tag, slot)
}

// add appends v, whose empty slot is slot, and returns its ID.
func (d *Dict) add(v string, tag uint32, slot int) uint32 {
	id := uint32(len(d.vals))
	d.vals = append(d.vals, v)
	e := uint64(tag)<<32 | uint64(id+1)
	if 4*len(d.vals) <= 3*len(d.index) {
		d.index[slot] = e
		return id
	}
	grown := make([]uint64, 2*len(d.index))
	for _, old := range d.index {
		if old != 0 {
			place(grown, old)
		}
	}
	place(grown, e)
	d.index = grown
	return id
}

// Lookup returns the ID for s without interning. ok is false when s has
// never been seen; such a value is by construction absent from every
// column position coded by this dictionary.
func (d *Dict) Lookup(s string) (id uint32, ok bool) {
	_, id, ok = d.find(s, tagOf(s))
	return id, ok
}

// Value returns the string for an ID previously returned by Intern.
func (d *Dict) Value(id uint32) string { return d.vals[id] }

// Values returns the id-ordered value slice. The slice is owned by the
// dictionary and grows with it; callers must not mutate it.
func (d *Dict) Values() []string { return d.vals }

// Decode reads a dictionary of n distinct values from the front of b,
// laid out as table.bin (version 2) writes one: n uvarint value lengths,
// each in its shortest form, then the size bytes of the values end to
// end. It returns the dictionary, IDs in list order, and the bytes read.
// The value bytes are copied once, into an arena of exactly their size,
// and the index is sized for n. Counts the bytes left cannot hold (or an
// index slot's 32-bit ID+1 cannot number), lengths that do not add up to
// size, and a value listed twice are refused, the counts before anything
// is sized by them.
func Decode(b []byte, n, size uint64) (*Dict, int, error) {
	if n > uint64(len(b)) || size > uint64(len(b)) || n >= 1<<32 {
		return nil, 0, fmt.Errorf("%d values of %d bytes with %d bytes left", n, size, len(b))
	}
	// The lengths are read twice: to find where the values start, then to
	// cut them out of the arena.
	off, sum := 0, uint64(0)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b[off:])
		if k <= 0 || k != (bits.Len64(l|1)+6)/7 {
			return nil, 0, fmt.Errorf("value %d: truncated, overflowing or padded length", i)
		}
		off += k
		if sum += l; l > size || sum > size {
			return nil, 0, fmt.Errorf("value %d: lengths add up past the %d bytes of values", i, size)
		}
	}
	if sum != size {
		return nil, 0, fmt.Errorf("%d values add up to %d bytes, not %d", n, sum, size)
	}
	if size > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("%d bytes of values with %d bytes left", size, len(b)-off)
	}
	d := newSized(int(n), int(size))
	d.cur = append(d.cur, b[off:off+int(size)]...)
	lens, at := b[:off], 0
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(lens)
		lens = lens[k:]
		v := unsafe.String(unsafe.SliceData(d.cur[at:]), int(l))
		at += int(l)
		tag := tagOf(v)
		slot, _, dup := d.find(v, tag)
		if dup {
			return nil, 0, fmt.Errorf("value %d (%q) is listed twice", i, v)
		}
		d.add(v, tag, slot)
	}
	return d, off + int(size), nil
}
