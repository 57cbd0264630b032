package intern

import (
	"fmt"
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

func TestVerdicts(t *testing.T) {
	match := make([]bool, 100)
	for id := range match {
		match[id] = id%2 == 0
	}
	v := VerdictsOf(match)
	for id := uint32(0); id < 100; id++ {
		if got, known := v.Known(id); !known || got != (id%2 == 0) {
			t.Fatalf("seeded verdict(%d) = %v, known %v", id, got, known)
		}
	}
	if _, known := v.Known(100); known {
		t.Fatal("an id past the seed is known")
	}
	// A sparse Set grows the table and leaves the ids it skips unknown.
	v.Set(1<<20, true)
	if got, known := v.Known(1 << 20); !got || !known {
		t.Fatal("sparse verdict lost")
	}
	if _, known := v.Known(1 << 19); known {
		t.Fatal("an id between seed and sparse Set is known")
	}
	var w Verdicts
	if _, known := w.Known(0); known {
		t.Fatal("the zero value knows a verdict")
	}
}
