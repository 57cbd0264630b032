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
			t.Errorf("%v.String() = %q, want %q", c.Name(), got, want)
		}
	}
	if got := Class(200).String(); got != "Class(200)" {
		t.Errorf("invalid class String = %q", got)
	}
}

func TestClassName(t *testing.T) {
	names := map[Class]string{
		Upper: "Upper", Lower: "Lower", Digit: "Digit", Symbol: "Symbol", All: "All",
	}
	for c, want := range names {
		if got := c.Name(); got != want {
			t.Errorf("Name(%v) = %q, want %q", c, got, want)
		}
	}
}

func TestContains(t *testing.T) {
	for _, c := range allClasses {
		if !All.Contains(c) {
			t.Errorf("All should contain %v", c)
		}
		if !c.Contains(c) {
			t.Errorf("%v should contain itself", c)
		}
	}
	if Upper.Contains(Lower) {
		t.Error("Upper should not contain Lower")
	}
	if Digit.Contains(All) {
		t.Error("Digit should not contain All")
	}
}

func TestParent(t *testing.T) {
	for _, c := range []Class{Upper, Lower, Digit, Symbol} {
		if c.Parent() != All {
			t.Errorf("Parent(%v) = %v, want All", c, c.Parent())
		}
	}
	if All.Parent() != All {
		t.Error("Parent(All) should be All (fixed point)")
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

func TestValid(t *testing.T) {
	for _, c := range allClasses {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	if Class(99).Valid() {
		t.Error("Class(99) should be invalid")
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
		ca, cb := Class(a%uint8(numClasses)), Class(b%uint8(numClasses))
		g := LCG(ca, cb)
		return g == LCG(cb, ca) && LCG(ca, ca) == ca &&
			g.Contains(ca) && g.Contains(cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Contains is a partial order (reflexive + antisymmetric +
// transitive) on the five classes.
func TestContainsPartialOrder(t *testing.T) {
	cs := allClasses
	for _, a := range cs {
		if !a.Contains(a) {
			t.Fatalf("not reflexive at %v", a)
		}
		for _, b := range cs {
			if a.Contains(b) && b.Contains(a) && a != b {
				t.Fatalf("antisymmetry violated: %v, %v", a, b)
			}
			for _, c := range cs {
				if a.Contains(b) && b.Contains(c) && !a.Contains(c) {
					t.Fatalf("transitivity violated: %v ⊇ %v ⊇ %v", a, b, c)
				}
			}
		}
	}
}
