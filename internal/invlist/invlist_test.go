package invlist

import (
	"strconv"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// newList returns an empty list over tuples with the given RHS values and
// LHS values that are all distinct, so that value v is tuple v and the
// list degenerates to the per-tuple one.
func newList(rhs ...string) *List {
	lhs := make([]string, len(rhs))
	for i := range lhs {
		lhs[i] = "v" + strconv.Itoa(i)
	}
	return New(columns(lhs, rhs))
}

// columns codes two parallel value lists the way a table does.
func columns(lhs, rhs []string) (Column, Column) {
	t := table.MustNew("t", []string{"lhs", "rhs"})
	for i := range lhs {
		t.MustAppend(lhs[i], rhs[i])
	}
	l, r := t.InternedColumn(0), t.InternedColumn(1)
	return Column{l.Dict.Values(), l.IDs}, Column{r.Dict.Values(), r.IDs}
}

func tok(s string) Key { return Key{Kind: Token, Text: s} }

func (l *List) insert(key string, value, pos int) { l.Insert(tok(key), value, pos) }

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
	for _, e := range l.Entries(0) {
		if e.Key == k {
			return e
		}
	}
	return Entry{}
}

func buildSample() *List {
	// Key "John" appears in tuples 0,1,2 all with RHS "M"; tuple 3 has
	// RHS "F" (the dirty one).
	l := newList("M", "M", "M", "F", "F", "F")
	l.insert("John", 0, 0)
	l.insert("John", 1, 0)
	l.insert("John", 2, 0)
	l.insert("John", 3, 0)
	l.insert("Susan", 4, 0)
	l.insert("Susan", 5, 0)
	return l
}

func TestInsertAndPostings(t *testing.T) {
	l := buildSample()
	if n := len(l.Entries(0)); n != 2 {
		t.Fatalf("%d keys", n)
	}
	if n := len(entry(l, tok("John")).Postings); n != 4 {
		t.Errorf("John postings = %d", n)
	}
	if entry(l, tok("missing")).Postings != nil {
		t.Error("missing key should have no postings")
	}
	if l.Keys() != 2 {
		t.Errorf("Keys = %d, want 2", l.Keys())
	}
}

func TestInsertOutOfValueOrderPanics(t *testing.T) {
	l := newList("x", "x")
	l.insert("k", 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("inserting value 0 after value 1 must panic: the analysis relies on value order")
		}
	}()
	l.insert("k", 0, 0)
}

func TestAnalyze(t *testing.T) {
	l := buildSample()
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
	l := newList("x")
	// Same tuple mentions the key twice (e.g. "aa aa"): support counts
	// tuples, not postings.
	l.insert("aa", 0, 0)
	l.insert("aa", 0, 1)
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
	l := newList()
	e := entry(l, tok("missing"))
	if e.Support != 0 || e.Confidence() != 0 {
		t.Errorf("empty entry: support=%d conf=%f", e.Support, e.Confidence())
	}
}

func TestEntriesOrdering(t *testing.T) {
	l := buildSample()
	es := l.Entries(0)
	if len(es) != 2 {
		t.Fatalf("Entries = %d", len(es))
	}
	if es[0].Key.Text != "John" || es[1].Key.Text != "Susan" {
		t.Errorf("order: %s, %s (want John first, higher support)", es[0].Key.Text, es[1].Key.Text)
	}
}

func TestEntriesTieBreaksOnKey(t *testing.T) {
	l := newList("x", "x")
	l.insert("b", 0, 0)
	l.insert("a", 1, 0)
	es := l.Entries(0)
	if es[0].Key.Text != "a" {
		t.Errorf("tie should break lexicographically, got %q first", es[0].Key.Text)
	}
}

func TestDominantPosition(t *testing.T) {
	l := newList("x", "x", "x")
	l.insert("k", 0, 1)
	l.insert("k", 1, 1)
	l.insert("k", 2, 3)
	e := entry(l, tok("k"))
	if e.DominantLHSPos != 1 {
		t.Errorf("DominantLHSPos = %d", e.DominantLHSPos)
	}
	if e.PosPurity < 0.6 || e.PosPurity > 0.7 {
		t.Errorf("PosPurity = %f", e.PosPurity)
	}
}

// Ties: the lexicographically smallest RHS wins whatever order the votes
// arrive in, and the lowest position wins — including positions far past
// anything a small fixed counter array would hold.
func TestTopRHSAndPositionTies(t *testing.T) {
	l := newList("b", "a", "c", "c", "a", "b")
	for tuple, pos := range []int{70_000, 3, 70_000, 3, 9, 9} {
		l.insert("k", tuple, pos)
	}
	e := entry(l, tok("k"))
	if e.Support != 6 || e.TopRHS != "a" || e.TopCount != 2 {
		t.Errorf("support %d top %q/%d, want 6 a/2", e.Support, e.TopRHS, e.TopCount)
	}
	if e.DominantLHSPos != 3 || e.PosPurity != 2.0/6.0 {
		t.Errorf("pos %d purity %v, want 3 and 1/3", e.DominantLHSPos, e.PosPurity)
	}
	// The counters are reused across keys: a second key must not see the
	// first one's votes.
	l.insert("z", 5, 70_000)
	z := entry(l, tok("z"))
	if z.Support != 1 || z.TopRHS != "b" || z.TopCount != 1 || z.DominantLHSPos != 70_000 || z.PosPurity != 1 {
		t.Errorf("second key polluted by the first: %+v", z)
	}
}
