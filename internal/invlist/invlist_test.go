package invlist

import (
	"testing"
)

func buildSample() *List {
	l := NewList()
	// Key "John" appears in tuples 0,1,2 all with RHS "M"; tuple 3 has
	// RHS "F" (the dirty one).
	l.Insert("John", Posting{TupleID: 0, LHSPos: 0, RHS: "M"})
	l.Insert("John", Posting{TupleID: 1, LHSPos: 0, RHS: "M"})
	l.Insert("John", Posting{TupleID: 2, LHSPos: 0, RHS: "M"})
	l.Insert("John", Posting{TupleID: 3, LHSPos: 0, RHS: "F"})
	l.Insert("Susan", Posting{TupleID: 4, LHSPos: 0, RHS: "F"})
	l.Insert("Susan", Posting{TupleID: 5, LHSPos: 0, RHS: "F"})
	return l
}

func TestInsertAndPostings(t *testing.T) {
	l := buildSample()
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if n := len(l.Postings("John")); n != 4 {
		t.Errorf("John postings = %d", n)
	}
	if l.Postings("missing") != nil {
		t.Error("missing key should return nil")
	}
	keys := l.Keys()
	if len(keys) != 2 || keys[0] != "John" || keys[1] != "Susan" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestAnalyze(t *testing.T) {
	l := buildSample()
	e := l.Analyze("John")
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
	l := NewList()
	// Same tuple mentions the key twice (e.g. "aa aa"): support counts
	// tuples, not postings.
	l.Insert("aa", Posting{TupleID: 0, LHSPos: 0, RHS: "x"})
	l.Insert("aa", Posting{TupleID: 0, LHSPos: 1, RHS: "x"})
	e := l.Analyze("aa")
	if e.Support != 1 {
		t.Errorf("Support = %d, want 1 (per-tuple)", e.Support)
	}
	if e.RHSCounts["x"] != 1 {
		t.Errorf("RHSCounts[x] = %d, want 1", e.RHSCounts["x"])
	}
}

func TestAnalyzeEmptyKey(t *testing.T) {
	l := NewList()
	e := l.Analyze("missing")
	if e.Support != 0 || e.Confidence() != 0 {
		t.Errorf("empty entry: support=%d conf=%f", e.Support, e.Confidence())
	}
}

func TestEntriesOrdering(t *testing.T) {
	l := buildSample()
	es := l.Entries()
	if len(es) != 2 {
		t.Fatalf("Entries = %d", len(es))
	}
	if es[0].Key != "John" || es[1].Key != "Susan" {
		t.Errorf("order: %s, %s (want John first, higher support)", es[0].Key, es[1].Key)
	}
}

func TestEntriesTieBreaksOnKey(t *testing.T) {
	l := NewList()
	l.Insert("b", Posting{TupleID: 0, RHS: "x"})
	l.Insert("a", Posting{TupleID: 1, RHS: "x"})
	es := l.Entries()
	if es[0].Key != "a" {
		t.Errorf("tie should break lexicographically, got %q first", es[0].Key)
	}
}

func TestDominantPosition(t *testing.T) {
	l := NewList()
	l.Insert("k", Posting{TupleID: 0, LHSPos: 1, RHS: "x"})
	l.Insert("k", Posting{TupleID: 1, LHSPos: 1, RHS: "x"})
	l.Insert("k", Posting{TupleID: 2, LHSPos: 3, RHS: "x"})
	e := l.Analyze("k")
	if e.DominantLHSPos != 1 {
		t.Errorf("DominantLHSPos = %d", e.DominantLHSPos)
	}
	if e.PosPurity < 0.6 || e.PosPurity > 0.7 {
		t.Errorf("PosPurity = %f", e.PosPurity)
	}
}
