package classify

import (
	"testing"
	"testing/quick"
)

func TestClassifyTable3Errors(t *testing.T) {
	// The D5 errors of Table 3, classified as a human would.
	cases := []struct {
		observed, expected string
		want               Kind
	}{
		{"Chicag", "Chicago", Truncation},
		{"C", "Chicago", Truncation},
		{"Chciago", "Chicago", Typo}, // transposition = distance 2, len 7
		{"lL", "IL", Swap},           // 'l' vs 'I' is not a case fold of the same letter
		{"iL", "IL", CaseSlip},
		{"MI", "CA", Swap},
		{"Chicago", "Chicago", Identical},
		{"Los Angele", "Los Angeles", Truncation},
		{"Lps Angeles", "Los Angeles", Typo},
		{"New York", "Los Angeles", Swap},
		{"F", "M", Swap},
	}
	for _, c := range cases {
		if got := Classify(c.observed, c.expected); got != c.want {
			t.Errorf("Classify(%q, %q) = %v, want %v", c.observed, c.expected, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Identical: "identical", CaseSlip: "case-slip", Truncation: "truncation",
		Typo: "typo", Swap: "swap", Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"Chicago", "Chciago", 2},
		{"abc", "abc", 0},
		{"日本", "日本語", 1}, // rune-wise, not byte-wise
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties: distance is symmetric, zero iff equal, and obeys the
// triangle inequality on samples.
func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(sym, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	zero := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(zero, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	tri := func(a, b, c string) bool {
		if len(a) > 12 || len(b) > 12 || len(c) > 12 {
			return true
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([][2]string{
		{"Chicag", "Chicago"},
		{"iL", "IL"},
		{"MI", "CA"},
		{"MI", "CA"},
	})
	if s.Total != 4 {
		t.Errorf("Total = %d", s.Total)
	}
	if s.Counts[Truncation] != 1 || s.Counts[CaseSlip] != 1 || s.Counts[Swap] != 2 {
		t.Errorf("Counts = %v", s.Counts)
	}
}
