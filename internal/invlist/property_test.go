package invlist

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Property: per-entry accounting against a map-based recount — Support
// equals the number of distinct tuples, TopCount is the largest number of
// distinct tuples sharing an RHS, TopRHS the smallest such value, the
// dominant position the most frequent (lowest on ties) over all postings,
// Tuples the sorted distinct tuple ids, and entries come out by
// descending support, then key.
func TestEntryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		nTuples := 1 + rng.Intn(20)
		rhs := make([]string, nTuples)
		for i := range rhs {
			rhs[i] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		l := newList(rhs...)
		wantTuples := map[string]map[int]bool{}
		wantPos := map[string]map[int]int{}
		wantPostings := map[string]int{}
		// Postings arrive in tuple order; a tuple may mention a key
		// several times, at the same or at different positions.
		for tuple := 0; tuple < nTuples; tuple++ {
			for n := rng.Intn(5); n > 0; n-- {
				key := fmt.Sprintf("k%d", rng.Intn(5))
				pos := rng.Intn(3)
				l.insert(key, tuple, pos)
				if wantTuples[key] == nil {
					wantTuples[key] = map[int]bool{}
					wantPos[key] = map[int]int{}
				}
				wantTuples[key][tuple] = true
				wantPos[key][pos]++
				wantPostings[key]++
			}
		}
		es := l.Entries()
		if len(es) != len(wantTuples) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(es), len(wantTuples))
		}
		for i, e := range es {
			key := e.Key.Text
			if e.Support != len(wantTuples[key]) {
				t.Fatalf("key %s: Support=%d want %d", key, e.Support, len(wantTuples[key]))
			}
			votes := map[string]int{}
			var tuples []int
			for tuple := range wantTuples[key] {
				votes[rhs[tuple]]++
				tuples = append(tuples, tuple)
			}
			sort.Ints(tuples)
			topRHS, topCount := "", 0
			for u, c := range votes {
				if c > topCount || (c == topCount && u < topRHS) {
					topRHS, topCount = u, c
				}
			}
			if e.TopRHS != topRHS || e.TopCount != topCount {
				t.Fatalf("key %s: top %q/%d want %q/%d", key, e.TopRHS, e.TopCount, topRHS, topCount)
			}
			if c := e.Confidence(); c <= 0 || c > 1 {
				t.Fatalf("key %s: confidence %f out of range", key, c)
			}
			bestPos, bestN := 0, -1
			for pos, n := range wantPos[key] {
				if n > bestN || (n == bestN && pos < bestPos) {
					bestPos, bestN = pos, n
				}
			}
			if e.DominantLHSPos != bestPos || e.PosPurity != float64(bestN)/float64(wantPostings[key]) {
				t.Fatalf("key %s: pos %d purity %v want %d %v", key, e.DominantLHSPos, e.PosPurity,
					bestPos, float64(bestN)/float64(wantPostings[key]))
			}
			if got := fmt.Sprint(e.Tuples(nil)); got != fmt.Sprint(tuples) {
				t.Fatalf("key %s: Tuples %s want %v", key, got, tuples)
			}
			if i > 0 {
				p := es[i-1]
				if p.Support < e.Support || (p.Support == e.Support && p.Key.Text >= key) {
					t.Fatalf("entries out of order at %d: %s/%d before %s/%d", i, p.Key.Text, p.Support, key, e.Support)
				}
			}
		}
	}
}

// Property: Compare is the order of the rendered keys, on every kind
// pairing — including texts that contain the rendering's NUL separator,
// multi-byte texts of unequal length, and positions whose decimal
// spelling does not sort numerically.
func TestCompareMatchesRenderedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pieces := []string{"a", "b", "0", "9", "\x00", "é", "日", "p", "g", "1"}
	randKey := func() Key {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		k := Key{Kind: Kind(rng.Intn(3)), Text: b.String()}
		if k.Kind == Gram {
			k.Pos = int32([]int{1, 2, 9, 10, 11, 99, 100, 123456}[rng.Intn(8)])
		}
		return k
	}
	sign := func(n int) int {
		switch {
		case n < 0:
			return -1
		case n > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20_000; i++ {
		a, b := randKey(), randKey()
		want := strings.Compare(a.String(), b.String())
		if got := sign(Compare(a, b)); got != want {
			t.Fatalf("Compare(%q, %q) = %d, rendered order %d", a.String(), b.String(), got, want)
		}
	}
}
