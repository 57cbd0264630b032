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

import "unsafe"

// arenaChunk is the allocation granularity of the value arena, which a
// dictionary reaches by doubling from arenaFirst: every column of every
// table has a dictionary, and most hold a few short values. Chunks are
// never grown in place — a full chunk is retired and a new one started —
// so unsafe.String views into a chunk stay valid forever.
const (
	arenaFirst = 256
	arenaChunk = 64 << 10
)

// Dict is one column's value dictionary.
type Dict struct {
	ids  map[string]uint32
	vals []string // id -> value, views into the arena
	cur  []byte   // current arena chunk; len grows toward cap, never realloc'd
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// Len returns the number of distinct values interned so far. IDs are the
// dense range [0, Len).
func (d *Dict) Len() int { return len(d.vals) }

// Intern returns the ID for s, assigning the next dense ID on first
// sight. The stored value bytes are copied into the arena; s itself is
// not retained.
func (d *Dict) Intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if len(s) > cap(d.cur)-len(d.cur) {
		size := max(len(s), min(arenaChunk, max(arenaFirst, 2*cap(d.cur))))
		d.cur = make([]byte, 0, size)
	}
	start := len(d.cur)
	d.cur = append(d.cur, s...)
	v := unsafe.String(unsafe.SliceData(d.cur[start:]), len(s))
	id := uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[v] = id
	return id
}

// Lookup returns the ID for s without interning. ok is false when s has
// never been seen; such a value is by construction absent from every
// column position coded by this dictionary.
func (d *Dict) Lookup(s string) (id uint32, ok bool) {
	id, ok = d.ids[s]
	return id, ok
}

// Value returns the string for an ID previously returned by Intern.
func (d *Dict) Value(id uint32) string { return d.vals[id] }

// Values returns the id-ordered value slice. The slice is owned by the
// dictionary and grows with it; callers must not mutate it.
func (d *Dict) Values() []string { return d.vals }

// Verdicts memoizes one boolean predicate per dictionary ID — the "run
// the compiled DFA once over the dictionary, not once per cell" cache.
// The zero value is ready for use; Set records verdicts as they are
// evaluated.
type Verdicts struct {
	seed []bool  // the verdicts of ids [0, len(seed)), shared and never written
	seen []uint8 // ids from len(seed) on: 0 = unknown, 1 = false, 2 = true
}

// VerdictsOf returns a memo holding match[id] for every id in
// [0, len(match)). It shares match, which must not change afterwards.
func VerdictsOf(match []bool) *Verdicts { return &Verdicts{seed: match} }

// Known returns the memoized verdict for id and whether one exists.
func (v *Verdicts) Known(id uint32) (verdict, known bool) {
	if int(id) < len(v.seed) {
		return v.seed[id], true
	}
	i := int(id) - len(v.seed)
	if i >= len(v.seen) {
		return false, false
	}
	s := v.seen[i]
	return s == 2, s != 0
}

// Set records the verdict for an id past the seed: the memo of an id
// Known reported unknown.
func (v *Verdicts) Set(id uint32, verdict bool) {
	i := int(id) - len(v.seed)
	if i >= len(v.seen) {
		v.seen = append(v.seen, make([]uint8, i+1-len(v.seen))...)
	}
	if verdict {
		v.seen[i] = 2
	} else {
		v.seen[i] = 1
	}
}
