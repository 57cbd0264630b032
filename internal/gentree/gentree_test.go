package gentree

import (
	"testing"
	"testing/quick"
)

// allClasses lists every class from most specific to most general.
var allClasses = []Class{Upper, Lower, Digit, Symbol, All}

func TestClassOf(t *testing.T) {
	cases := []struct {
		r    rune
		want Class
	}{
		{'A', Upper}, {'Z', Upper}, {'M', Upper},
		{'a', Lower}, {'z', Lower}, {'q', Lower},
		{'0', Digit}, {'9', Digit}, {'5', Digit},
		{' ', Symbol}, {'-', Symbol}, {',', Symbol}, {'.', Symbol},
		{'@', Symbol}, {'_', Symbol}, {'\t', Symbol},
		{'é', Symbol}, {'中', Symbol}, // non-ASCII fall into Symbol
	}
	for _, c := range cases {
		if got := ClassOf(c.r); got != c.want {
			t.Errorf("ClassOf(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Upper:  `\LU`,
		Lower:  `\LL`,
		Digit:  `\D`,
		Symbol: `\S`,
		All:    `\A`,
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
	if got := Class(200).String(); got != "Class(200)" {
		t.Errorf("invalid class String = %q", got)
	}
}

// contains reports whether class a generalizes class b: their least
// common generalization is a itself.
func contains(a, b Class) bool { return LCG(a, b) == a }

func TestContains(t *testing.T) {
	for _, c := range allClasses {
		if !contains(All, c) {
			t.Errorf("All should contain %v", c)
		}
		if !contains(c, c) {
			t.Errorf("%v should contain itself", c)
		}
	}
	if contains(Upper, Lower) {
		t.Error("Upper should not contain Lower")
	}
	if contains(Digit, All) {
		t.Error("Digit should not contain All")
	}
}

func TestLCG(t *testing.T) {
	if got := LCG(Upper, Upper); got != Upper {
		t.Errorf("LCG(Upper,Upper) = %v", got)
	}
	if got := LCG(Upper, Lower); got != All {
		t.Errorf("LCG(Upper,Lower) = %v", got)
	}
	if got := LCG(ClassOf('A'), ClassOf('B')); got != Upper {
		t.Errorf("LCG of A and B = %v", got)
	}
	if got := LCG(ClassOf('A'), ClassOf('7')); got != All {
		t.Errorf("LCG of A and 7 = %v", got)
	}
}

// Property: every character matches its own class and All.
func TestMatchesProperty(t *testing.T) {
	f := func(r rune) bool {
		return ClassOf(r).Matches(r) && All.Matches(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LCG is commutative and idempotent, and its result contains
// both inputs.
func TestLCGProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		n := uint8(len(allClasses))
		ca, cb := allClasses[a%n], allClasses[b%n]
		g := LCG(ca, cb)
		return g == LCG(cb, ca) && LCG(ca, ca) == ca &&
			(g == ca || g == All) && (g == cb || g == All)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the order LCG induces is a partial order (reflexive +
// antisymmetric + transitive) on the five classes.
func TestContainsPartialOrder(t *testing.T) {
	cs := allClasses
	for _, a := range cs {
		if !contains(a, a) {
			t.Fatalf("not reflexive at %v", a)
		}
		for _, b := range cs {
			if contains(a, b) && contains(b, a) && a != b {
				t.Fatalf("antisymmetry violated: %v, %v", a, b)
			}
			for _, c := range cs {
				if contains(a, b) && contains(b, c) && !contains(a, c) {
					t.Fatalf("transitivity violated: %v ⊇ %v ⊇ %v", a, b, c)
				}
			}
		}
	}
}
