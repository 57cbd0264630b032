package invlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// mention is one posting of the per-tuple list the weighted list stands
// for: what Figure 2 inserts for one occurrence of a key in one tuple.
type mention struct {
	tuple, pos int
	rhs        string
}

// randomList builds a list over a random table dominated by repeated LHS
// values, with rows missing either side interleaved (so value numbers are
// not dictionary IDs), and returns with it the per-tuple expansion of
// every key: each value's mentions are drawn once — a key may repeat
// inside a value, at the same or at different positions — and replayed
// for every eligible tuple holding it, in tuple order.
func randomList(rng *rand.Rand) (*List, map[string][]mention) {
	nTuples := 1 + rng.Intn(40)
	lhs, rhs := make([]string, nTuples), make([]string, nTuples)
	for i := range lhs {
		if rng.Intn(8) > 0 {
			lhs[i] = fmt.Sprintf("a%d", rng.Intn(6))
		}
		if rng.Intn(6) > 0 {
			rhs[i] = fmt.Sprintf("v%d", rng.Intn(4))
		}
	}
	l := New(columns(lhs, rhs))
	type occ struct {
		key string
		pos int
	}
	occs := map[string][]occ{}
	for v := 0; v < l.NumValues(); v++ {
		for n := rng.Intn(5); n > 0; n-- {
			o := occ{fmt.Sprintf("k%d", rng.Intn(5)), rng.Intn(3)}
			occs[l.Value(v)] = append(occs[l.Value(v)], o)
			l.insert(o.key, v, o.pos)
		}
	}
	want := map[string][]mention{}
	for tuple, v := range lhs {
		if v == "" || rhs[tuple] == "" {
			continue
		}
		for _, o := range occs[v] {
			want[o.key] = append(want[o.key], mention{tuple, o.pos, rhs[tuple]})
		}
	}
	return l, want
}

// Property: per-entry accounting against a map-based recount of the
// per-tuple expansion — Support equals the number of distinct tuples,
// TopCount is the largest number of distinct tuples sharing an RHS, TopRHS
// the smallest such value, the dominant position the most frequent (lowest
// on ties) over all mentions, the walk's tuples the sorted distinct tuple
// ids, and entries come out by descending support, then key. A support
// floor drops exactly the entries below it.
func TestEntryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		l, want := randomList(rng)
		es := l.Entries(0)
		if len(es) != len(want) || l.Keys() != len(want) {
			t.Fatalf("trial %d: %d entries, %d keys, want %d", trial, len(es), l.Keys(), len(want))
		}
		floor := rng.Intn(6)
		floored := l.Entries(floor)
		for i, e := range es {
			key := e.Key.Text
			votes, posN := map[string]int{}, map[int]int{}
			var tuples []int
			for _, m := range want[key] {
				if len(tuples) == 0 || tuples[len(tuples)-1] != m.tuple {
					tuples = append(tuples, m.tuple)
					votes[m.rhs]++
				}
				posN[m.pos]++
			}
			if e.Support != len(tuples) || e.Mentions != len(want[key]) {
				t.Fatalf("key %s: Support=%d Mentions=%d want %d %d", key, e.Support, e.Mentions, len(tuples), len(want[key]))
			}
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
			for pos, n := range posN {
				if n > bestN || (n == bestN && pos < bestPos) {
					bestPos, bestN = pos, n
				}
			}
			if e.DominantLHSPos != bestPos || e.PosPurity != float64(bestN)/float64(len(want[key])) {
				t.Fatalf("key %s: pos %d purity %v want %d %v", key, e.DominantLHSPos, e.PosPurity,
					bestPos, float64(bestN)/float64(len(want[key])))
			}
			if got := fmt.Sprint(e.tuples()); got != fmt.Sprint(tuples) {
				t.Fatalf("key %s: tuples %s want %v", key, got, tuples)
			}
			if i > 0 {
				p := es[i-1]
				if p.Support < e.Support || (p.Support == e.Support && p.Key.Text >= key) {
					t.Fatalf("entries out of order at %d: %s/%d before %s/%d", i, p.Key.Text, p.Support, key, e.Support)
				}
			}
			if e.Support >= floor {
				if len(floored) == 0 || fmt.Sprintf("%+v", floored[0]) != fmt.Sprintf("%+v", e) {
					t.Fatalf("floor %d: entry %s missing or different", floor, key)
				}
				floored = floored[1:]
			}
		}
		if len(floored) != 0 {
			t.Fatalf("floor %d kept %d entries below it", floor, len(floored))
		}
	}
}

// Property: the tuple-order walk yields exactly the postings of the
// per-tuple expansion, in its order, and a walk told to stop after k of
// them has yielded its first k and is not called again.
func TestInTupleOrderMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		l, want := randomList(rng)
		for _, e := range l.Entries(0) {
			ms := want[e.Key.Text]
			for _, stop := range []int{len(ms) + 1, 1 + rng.Intn(len(ms)), 1} {
				var got []mention
				e.InTupleOrder(func(tuple int32, p Posting) bool {
					if len(got) >= stop {
						t.Fatalf("key %s: walk continued after yield returned false", e.Key.Text)
					}
					got = append(got, mention{tuple: int(tuple), pos: int(p.Pos)})
					if v := e.LHS(p); v == "" || !strings.HasPrefix(v, "a") {
						t.Fatalf("key %s: posting's value %q", e.Key.Text, v)
					}
					return len(got) < stop
				})
				for i := range got {
					got[i].rhs = ms[i].rhs
				}
				if fmt.Sprint(got) != fmt.Sprint(ms[:min(stop, len(ms))]) {
					t.Fatalf("trial %d key %s stop %d:\n got  %v\n want %v", trial, e.Key.Text, stop, got, ms)
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
