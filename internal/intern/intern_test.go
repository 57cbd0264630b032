package intern

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	words := []string{"a", "b", "a", "", "hello", "b", "héllo", "\x1f", "a\x1fb"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = d.Intern(w)
	}
	if ids[0] != ids[2] || ids[1] != ids[5] {
		t.Fatalf("equal strings got distinct ids: %v", ids)
	}
	if ids[0] == ids[1] {
		t.Fatalf("distinct strings share an id")
	}
	for i, w := range words {
		if got := d.Value(ids[i]); got != w {
			t.Errorf("Value(%d) = %q, want %q", ids[i], got, w)
		}
		id, ok := d.Lookup(w)
		if !ok || id != ids[i] {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", w, id, ok, ids[i])
		}
	}
	if _, ok := d.Lookup("never-seen"); ok {
		t.Errorf("Lookup of unseen value reported ok")
	}
	if d.Len() != 7 {
		t.Errorf("Len = %d, want 7 distinct", d.Len())
	}
}

// TestDictDenseIDs pins the append-only contract: IDs are assigned in
// first-sight order and never reused.
func TestDictDenseIDs(t *testing.T) {
	d := NewDict()
	for i := 0; i < 1000; i++ {
		if id := d.Intern(fmt.Sprintf("v%03d", i)); id != uint32(i) {
			t.Fatalf("Intern #%d assigned id %d", i, id)
		}
	}
	for i := 999; i >= 0; i-- {
		if id := d.Intern(fmt.Sprintf("v%03d", i)); id != uint32(i) {
			t.Fatalf("re-Intern #%d returned id %d", i, id)
		}
	}
}

// TestDictArenaDoesNotAliasInput verifies the dictionary copies value
// bytes: mutating the caller's buffer after Intern must not change the
// stored value.
func TestDictArenaDoesNotAliasInput(t *testing.T) {
	d := NewDict()
	buf := []byte("mutable")
	id := d.Intern(string(buf)) // string(buf) copies already; also test big values
	big := strings.Repeat("x", 3*arenaChunk)
	idBig := d.Intern(big)
	if d.Value(id) != "mutable" || d.Value(idBig) != big {
		t.Fatalf("arena round-trip failed")
	}
	// Values interned around a chunk boundary stay intact.
	var ids []uint32
	var want []string
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("boundary-%d-%s", i, strings.Repeat("y", i%97))
		ids = append(ids, d.Intern(s))
		want = append(want, s)
	}
	for i := range ids {
		if d.Value(ids[i]) != want[i] {
			t.Fatalf("value %d corrupted after arena growth", i)
		}
	}
}

// growthSizes are value counts around the index's growth points and the
// powers of two: 0, 1, and 2^k−1, 2^k, 2^k+1 up to 2^9.
func growthSizes() []int {
	out := []int{0, 1}
	for k := 1; k <= 9; k++ {
		out = append(out, 1<<k-1, 1<<k, 1<<k+1)
	}
	return append(out, 6, 7, 12, 13, 24, 25, 48, 49, 96, 97, 192, 193, 384, 385)
}

// FuzzDictAgainstMap runs a random Intern/Lookup sequence against a
// map[string]uint32 reference, on a dictionary that already holds n
// values (so the sequence starts at or across a growth boundary) and on
// one decoded from the same values: IDs, Values() and every lookup must
// agree. ops is read two bytes at a time, an op and a value; value 0 is
// the empty string.
func FuzzDictAgainstMap(f *testing.F) {
	for _, n := range growthSizes() {
		f.Add(uint16(n), []byte{0, 0, 1, 0, 0, 7, 1, 7, 1, 200, 0, 3, 0, 255})
	}
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		value := func(b byte) string {
			if b == 0 {
				return ""
			}
			return fmt.Sprintf("v%d", b%97) + strings.Repeat("x", int(b)/97)
		}
		d, ref, vals := NewDict(), map[string]uint32{}, []string(nil)
		var decoded *Dict
		intern := func(s string) {
			want, ok := ref[s]
			if !ok {
				want = uint32(len(vals))
				ref[s] = want
				vals = append(vals, s)
			}
			if id := d.Intern(s); id != want {
				t.Fatalf("Intern(%q) = %d, the map says %d", s, id, want)
			}
			if decoded != nil {
				if id := decoded.Intern(s); id != want {
					t.Fatalf("decoded dictionary: Intern(%q) = %d, the map says %d", s, id, want)
				}
			}
		}
		lookup := func(s string) {
			want, wantOK := ref[s]
			for _, x := range []*Dict{d, decoded} {
				if x == nil {
					continue
				}
				if id, ok := x.Lookup(s); ok != wantOK || id != want {
					t.Fatalf("Lookup(%q) = %d,%v, the map says %d,%v", s, id, ok, want, wantOK)
				}
			}
		}
		for i := 0; i < int(n)%1024; i++ {
			intern("n" + strconv.Itoa(i))
		}
		decoded = decodeOf(t, vals)
		for i := 0; i+1 < len(ops); i += 2 {
			if s := value(ops[i+1]); ops[i]&1 == 0 {
				intern(s)
			} else {
				lookup(s)
			}
		}
		for _, x := range []*Dict{d, decoded} {
			if !slices.Equal(x.Values(), vals) {
				t.Fatalf("Values() = %q, the map's insertion order is %q", x.Values(), vals)
			}
		}
		for s := range ref {
			lookup(s)
		}
		lookup("never interned")
	})
}

// decodeOf returns the dictionary Decode reads from vals laid out as
// table.bin version 2 writes a column's values.
func decodeOf(t *testing.T, vals []string) *Dict {
	t.Helper()
	var b []byte
	size := 0
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		size += len(v)
	}
	for _, v := range vals {
		b = append(b, v...)
	}
	d, n, err := Decode(b, uint64(len(vals)), uint64(size))
	if err != nil || n != len(b) {
		t.Fatalf("Decode of %d values: read %d of %d bytes, err %v", len(vals), n, len(b), err)
	}
	return d
}

// liveHeap is the heap a full collection finds live, in bytes. The first
// collection empties the sync.Pools into their victim caches, the second
// drops those too, so that nothing the measured code did not free falls
// out of the reading between two calls.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestIndexCostsLessThanTheMap: the index's bytes per value, at the sizes
// a table column reaches and just past a power of two, grown one Intern
// at a time and sized by the decoder, never exceed what the
// map[string]uint32 it replaced holds live for the same values.
func TestIndexCostsLessThanTheMap(t *testing.T) {
	for _, n := range []int{1000, 50_000, 65_537} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = strconv.Itoa(8_500_000_000 + i)
		}
		before := liveHeap()
		m := make(map[string]uint32)
		for i, k := range keys {
			m[k] = uint32(i)
		}
		mapPer := float64(liveHeap()-before) / float64(n)
		runtime.KeepAlive(m)

		d := NewDict()
		for _, k := range keys {
			d.Intern(k)
		}
		grown := float64(8*len(d.index)) / float64(n)
		sized := float64(8*len(decodeOf(t, keys).index)) / float64(n)
		t.Logf("%d values: index %.1f B/value grown, %.1f decoded; map %.1f", n, grown, sized, mapPer)
		if grown > mapPer || sized > mapPer {
			t.Errorf("%d values: the index costs %.1f (grown) and %.1f (decoded) bytes a value, the map %.1f", n, grown, sized, mapPer)
		}
	}
}
