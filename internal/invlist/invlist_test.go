package invlist

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// columns codes two parallel value lists the way a table does.
func columns(lhs, rhs []string) (Column, Column) {
	t := table.MustNew("t", []string{"lhs", "rhs"})
	for i := range lhs {
		t.MustAppend(lhs[i], rhs[i])
	}
	l, r := t.InternedColumn(0), t.InternedColumn(1)
	return Column{l.Dict.Values(), l.IDs}, Column{r.Dict.Values(), r.IDs}
}

// tokenList builds the list of a candidate whose LHS values are cut into
// tokens, postings materialised for the keys at or above floor.
func tokenList(t testing.TB, lhs, rhs []string, floor int) *List {
	t.Helper()
	l, r := columns(lhs, rhs)
	idx, err := NewIndex(context.Background(), l, Cut{Tokens: true, MinSupport: floor})
	if err != nil {
		t.Fatal(err)
	}
	return New(idx, r)
}

func tok(s string) Key { return Key{Kind: Token, Text: s} }

// tuples lists the entry's distinct tuple ids in the order the tuple-order
// walk reaches them.
func (e Entry) tuples() []int32 {
	var out []int32
	e.InTupleOrder(func(t int32, _ Posting) bool {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
		return true
	})
	return out
}

// entry returns the analyzed entry of a key, or the zero Entry.
func entry(l *List, k Key) Entry {
	for _, e := range l.Entries() {
		if e.Key == k {
			return e
		}
	}
	return Entry{}
}

// buildSample: key "John" appears in tuples 0,1,2 all with RHS "M";
// tuple 3 has RHS "F" (the dirty one). Every value is distinct, so every
// tuple is a value of its own.
func buildSample(t *testing.T) *List {
	return tokenList(t,
		[]string{"John a", "John b", "John c", "John d", "Susan e", "Susan f"},
		[]string{"M", "M", "M", "F", "F", "F"}, 0)
}

func TestEntryPostings(t *testing.T) {
	l := buildSample(t)
	if n := len(l.Entries()); n != 8 {
		t.Fatalf("%d keys", n)
	}
	if ps := entry(l, tok("John")).Postings; len(ps) != 4 || slices.ContainsFunc(ps, func(p Posting) bool { return p.Pos != 0 }) {
		t.Errorf("John postings = %v", ps)
	}
	if entry(l, tok("missing")).Postings != nil {
		t.Error("missing key should have no postings")
	}
	if l.Keys() != 8 {
		t.Errorf("Keys = %d, want 8", l.Keys())
	}
}

func TestAnalyze(t *testing.T) {
	l := buildSample(t)
	e := entry(l, tok("John"))
	if e.Support != 4 {
		t.Errorf("Support = %d", e.Support)
	}
	if e.TopRHS != "M" || e.TopCount != 3 {
		t.Errorf("TopRHS = %q/%d", e.TopRHS, e.TopCount)
	}
	if got := e.Confidence(); got != 0.75 {
		t.Errorf("Confidence = %f", got)
	}
	if e.DominantLHSPos != 0 || e.PosPurity != 1 {
		t.Errorf("pos = %d purity = %f", e.DominantLHSPos, e.PosPurity)
	}
}

func TestAnalyzeDedupByTuple(t *testing.T) {
	// Same tuple mentions the key twice: support counts tuples, not
	// postings.
	l := tokenList(t, []string{"aa aa"}, []string{"x"}, 0)
	e := entry(l, tok("aa"))
	if e.Support != 1 {
		t.Errorf("Support = %d, want 1 (per-tuple)", e.Support)
	}
	if e.TopRHS != "x" || e.TopCount != 1 {
		t.Errorf("TopRHS/TopCount = %q/%d, want x/1 (one vote per tuple)", e.TopRHS, e.TopCount)
	}
	if e.Mentions != 2 || e.PosPurity != 0.5 || e.DominantLHSPos != 0 {
		t.Errorf("every mention counts towards positions: %d mentions, pos %d purity %f",
			e.Mentions, e.DominantLHSPos, e.PosPurity)
	}
	if got := e.tuples(); len(got) != 1 || got[0] != 0 {
		t.Errorf("tuples = %v, want [0]", got)
	}
}

func TestAnalyzeEmptyKey(t *testing.T) {
	l := tokenList(t, nil, nil, 0)
	e := entry(l, tok("missing"))
	if e.Support != 0 || e.Confidence() != 0 || l.Keys() != 0 {
		t.Errorf("empty entry: support=%d conf=%f keys=%d", e.Support, e.Confidence(), l.Keys())
	}
}

func TestEntriesOrdering(t *testing.T) {
	es := buildSample(t).Entries()
	if es[0].Key.Text != "John" || es[1].Key.Text != "Susan" {
		t.Errorf("order: %s, %s (want John first, higher support)", es[0].Key.Text, es[1].Key.Text)
	}
}

func TestEntriesTieBreaksOnKey(t *testing.T) {
	es := tokenList(t, []string{"b", "a"}, []string{"x", "x"}, 0).Entries()
	if es[0].Key.Text != "a" {
		t.Errorf("tie should break lexicographically, got %q first", es[0].Key.Text)
	}
}

func TestDominantPosition(t *testing.T) {
	l := tokenList(t, []string{"a k", "b k", "c d e k"}, []string{"x", "x", "x"}, 0)
	e := entry(l, tok("k"))
	if e.DominantLHSPos != 1 {
		t.Errorf("DominantLHSPos = %d", e.DominantLHSPos)
	}
	if e.PosPurity < 0.6 || e.PosPurity > 0.7 {
		t.Errorf("PosPurity = %f", e.PosPurity)
	}
}

// at renders a value with the given tokens at the given positions and a
// filler token, unique to the value, everywhere else.
func at(filler string, toks map[int]string) string {
	last := 0
	for p := range toks {
		last = max(last, p)
	}
	words := make([]string, last+1)
	for p := range words {
		if w, ok := toks[p]; ok {
			words[p] = w
		} else {
			words[p] = filler
		}
	}
	return strings.Join(words, " ")
}

// Ties: the lexicographically smallest RHS wins whatever order the votes
// arrive in, and the lowest position wins — including positions far past
// anything a small fixed counter array would hold.
func TestTopRHSAndPositionTies(t *testing.T) {
	var lhs []string
	for tuple, pos := range []int{70_000, 3, 70_000, 3, 9, 9} {
		toks := map[int]string{pos: "k"}
		if tuple == 5 {
			toks[70_000] = "z"
		}
		lhs = append(lhs, at(fmt.Sprint("w", tuple), toks))
	}
	l := tokenList(t, lhs, []string{"b", "a", "c", "c", "a", "b"}, 0)
	e := entry(l, tok("k"))
	if e.Support != 6 || e.TopRHS != "a" || e.TopCount != 2 {
		t.Errorf("support %d top %q/%d, want 6 a/2", e.Support, e.TopRHS, e.TopCount)
	}
	if e.DominantLHSPos != 3 || e.PosPurity != 2.0/6.0 {
		t.Errorf("pos %d purity %v, want 3 and 1/3", e.DominantLHSPos, e.PosPurity)
	}
	// The counters are reused across keys: a second key must not see the
	// first one's votes.
	z := entry(l, tok("z"))
	if z.Support != 1 || z.TopRHS != "b" || z.TopCount != 1 || z.DominantLHSPos != 70_000 || z.PosPurity != 1 {
		t.Errorf("second key polluted by the first: %+v", z)
	}
}

// One index serves every candidate with its LHS, and each candidate
// numbers the values by its own first eligible tuple: the two RHS columns
// lack cells in different rows, so the same LHS column yields different
// numberings, tuple runs, supports and key counts.
func TestSharedIndexNumbersValuesPerCandidate(t *testing.T) {
	tbl := table.MustNew("t", []string{"lhs", "b", "c"})
	for _, row := range [][]string{
		{"x k", "", "u"},
		{"y k", "u", ""},
		{"x k", "u", "u"},
		{"z", "u", "u"},
		{"y k", "v", ""},
	} {
		tbl.MustAppend(row...)
	}
	col := func(i int) Column {
		iv := tbl.InternedColumn(i)
		return Column{iv.Dict.Values(), iv.IDs}
	}
	for _, cut := range []Cut{{Tokens: true}, {NGramN: 2, MaxPrefix: 2, MinSupport: 2}} {
		idx, err := NewIndex(context.Background(), col(0), cut)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			rhs    int
			values string
			tuples map[string]string
		}{
			{1, "[y k x k z]", map[string]string{"y": "[1 4]", "x": "[2]", "k": "[1 2 4]"}},
			{2, "[x k z]", map[string]string{"x": "[0 2]", "k": "[0 2]", "y": "[]"}},
		} {
			l := New(idx, col(c.rhs))
			var values []string
			for v := range l.dictID {
				values = append(values, l.Value(v))
			}
			if got := fmt.Sprint(values); got != c.values {
				t.Errorf("%+v, RHS %d: values %s, want %s", cut, c.rhs, got, c.values)
			}
			if !cut.Tokens {
				continue
			}
			for key, want := range c.tuples {
				got := entry(l, tok(key)).tuples()
				if fmt.Sprint(got) != want && !(want == "[]" && got == nil) {
					t.Errorf("RHS %d: %s tuples %v, want %s", c.rhs, key, got, want)
				}
			}
			if want := 3 + c.rhs%2; l.Keys() != want {
				t.Errorf("RHS %d: %d keys, want %d", c.rhs, l.Keys(), want)
			}
		}
	}
}
