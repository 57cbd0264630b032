package pattern

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/gentree"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string // "" means round-trips to in
	}{
		{`\D{5}`, ""},
		{`\D*`, ""},
		{`900\D{2}`, ""},
		{`\LU\LL*\ \A*`, ""},
		{`John\ \A*`, ""},
		{`850\D{7}`, ""},
		{`\A*,\ Donald\A*`, ""},
		{`6060\D`, ""},
		{`60\D{3}`, ""},
		{`F-\D-\D{3}`, ""},
		{`\S`, ""},
		{`\LU+`, ""},
		{`\\`, ""},
		{`a b`, `a\ b`}, // bare space normalizes to escaped space
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.in
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, want)
		}
		// Round-trip again.
		p2, err := Parse(p.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", p.String(), err)
			continue
		}
		if !p.Equal(p2) {
			t.Errorf("round trip of %q not stable: %q", c.in, p2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`\`,           // dangling backslash
		`\L`,          // truncated class
		`\LX`,         // unknown class
		`*abc`,        // quantifier with no token
		`+`,           // same
		`{3}`,         // same
		`a{`,          // empty count
		`a{}`,         // empty count
		`a{x}`,        // non-numeric
		`a{3`,         // unterminated
		`a{0}`,        // zero count
		`a{99999999}`, // too large
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestMatchesPaperExamples(t *testing.T) {
	// Example 1 of the paper: 90001 matches \D{5} and \D*.
	p1 := MustParse(`\D{5}`)
	p2 := MustParse(`\D*`)
	if !p1.Matches("90001") {
		t.Error(`90001 should match \D{5}`)
	}
	if !p2.Matches("90001") {
		t.Error(`90001 should match \D*`)
	}
	if p1.Matches("9000") || p1.Matches("900012") || p1.Matches("9000a") {
		t.Error(`\D{5} matched a non-5-digit string`)
	}
	if !p2.Matches("") {
		t.Error(`\D* should match the empty string`)
	}

	// λ3: zip = 900\D{2}.
	lam3 := MustParse(`900\D{2}`)
	for _, zip := range []string{"90001", "90002", "90003", "90004"} {
		if !lam3.Matches(zip) {
			t.Errorf("%s should match 900\\D{2}", zip)
		}
	}
	if lam3.Matches("10001") || lam3.Matches("9000") {
		t.Error(`900\D{2} over-matched`)
	}

	// λ1: name = John\ \A*.
	lam1 := MustParse(`John\ \A*`)
	if !lam1.Matches("John Charles") || !lam1.Matches("John Bosco") {
		t.Error("John names should match λ1 LHS")
	}
	if lam1.Matches("Susan Orlean") || lam1.Matches("John") {
		t.Error("λ1 LHS over-matched")
	}

	// λ4 embedded: \LU\LL*\ \A*.
	lam4 := MustParse(`\LU\LL*\ \A*`)
	for _, n := range []string{"John Charles", "Susan Boyle", "Ann X"} {
		if !lam4.Matches(n) {
			t.Errorf("%q should match λ4 embedded pattern", n)
		}
	}
	if lam4.Matches("JOHN Charles") {
		t.Error(`\LU\LL*\ ... should reject all-caps first name (second char must be lower or space)`)
	}
	if lam4.Matches("john charles") {
		t.Error("lower-case first letter should not match")
	}
}

func TestMatchesQuantifiers(t *testing.T) {
	cases := []struct {
		pat string
		yes []string
		no  []string
	}{
		{`\D+`, []string{"1", "12345"}, []string{"", "a", "12a"}},
		{`a*b`, []string{"b", "ab", "aaab"}, []string{"", "a", "ba"}},
		{`\LL{2}\D`, []string{"ab1"}, []string{"a1", "abc1", "ab"}},
		{`\A*`, []string{"", "anything at all, 123!"}, nil},
		{`\S\S`, []string{"--", "  "}, []string{"-", "a-", "-a"}},
		{`x\D*y`, []string{"xy", "x123y"}, []string{"x123z", "xyy1"}},
	}
	for _, c := range cases {
		p := MustParse(c.pat)
		for _, s := range c.yes {
			if !p.Matches(s) {
				t.Errorf("%q should match %q", s, c.pat)
			}
		}
		for _, s := range c.no {
			if p.Matches(s) {
				t.Errorf("%q should not match %q", s, c.pat)
			}
		}
	}
}

func TestConsecutiveStarsOrdering(t *testing.T) {
	// \D*\LL* must mean digits then lowers, not an interleaving.
	p := MustParse(`\D*\LL*`)
	if !p.Matches("12ab") || !p.Matches("") || !p.Matches("12") || !p.Matches("ab") {
		t.Error(`\D*\LL* should match digit-then-lower strings`)
	}
	if p.Matches("a1") || p.Matches("1a1") {
		t.Error(`\D*\LL* must enforce ordering`)
	}
}

func TestMatchPrefixLengths(t *testing.T) {
	p := MustParse(`\D*`)
	got := p.AppendMatchPrefixLengths(nil, "12a4")
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("MatchPrefixLengths = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatchPrefixLengths = %v, want %v", got, want)
		}
	}

	q := MustParse(`John`)
	got = q.AppendMatchPrefixLengths(nil, "John Charles")
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("literal prefix lengths = %v", got)
	}
	if n := len(q.AppendMatchPrefixLengths(nil, "Jane")); n != 0 {
		t.Fatalf("no prefix expected, got %d", n)
	}
}

func TestContainment(t *testing.T) {
	cases := []struct {
		small, big string
		want       bool
	}{
		{`\D{5}`, `\D*`, true}, // Example 1: P1 ⊆ P2
		{`\D*`, `\D{5}`, false},
		{`900\D{2}`, `\D{5}`, true},
		{`900\D{2}`, `\D*`, true},
		{`\D{5}`, `900\D{2}`, false},
		{`John\ \A*`, `\LU\LL*\ \A*`, true}, // λ1 LHS ⊆ λ4 LHS
		{`\LU\LL*\ \A*`, `John\ \A*`, false},
		{`abc`, `\A*`, true},
		{`\A*`, `\A*`, true},
		{`\LL+`, `\LL*`, true},
		{`\LL*`, `\LL+`, false},
		{`\LU\LL*\ \A*\ \LU\LL*`, `\LU\LL*\ \A*`, true}, // Q2 ⊆ Q1 embedded
		{`\D{2}`, `\D{3}`, false},
		{`\LU`, `\A`, true},
		{`\A`, `\LU`, false},
		{`a*`, `\LL*`, true},
		{`\LL*`, `a*`, false},
	}
	for _, c := range cases {
		small, big := MustParse(c.small), MustParse(c.big)
		if got := big.Contains(small); got != c.want {
			t.Errorf("Contains(%q ⊆ %q) = %v, want %v", c.small, c.big, got, c.want)
		}
	}
}

func TestEquivalence(t *testing.T) {
	a := MustParse(`\D\D\D`)
	b := MustParse(`\D{3}`)
	if !equivalent(a, b) {
		t.Error(`\D\D\D should equal \D{3}`)
	}
	c := MustParse(`\D{2}`)
	if equivalent(a, c) {
		t.Error(`\D{3} should differ from \D{2}`)
	}
}

func TestGeneralizeLevels(t *testing.T) {
	s := "F-9-107"
	cases := map[Level]string{
		LevelLiteral:      `F-9-107`,
		LevelClass:        `\LU\S\D\S\D\D\D`,
		LevelClassRun:     `\LU\S\D\S\D{3}`,
		LevelClassRunOpen: `\LU\S\D\S\D+`,
		LevelAny:          `\A*`,
	}
	for lvl, want := range cases {
		p := Generalize(s, lvl)
		if got := p.String(); got != want {
			t.Errorf("Generalize(%q, %d) = %q, want %q", s, lvl, got, want)
		}
		if !p.Matches(s) {
			t.Errorf("generalization invariant violated at level %d for %q", lvl, s)
		}
	}
}

func TestSignature(t *testing.T) {
	if got := Signature("90001"); got != `\D{5}` {
		t.Errorf("Signature(90001) = %q", got)
	}
	if got := Signature("60603-6263"); got != `\D{5}\S\D{4}` {
		t.Errorf("Signature(60603-6263) = %q", got)
	}
	if Signature("Chicago") != Signature("Detroit") {
		t.Error("same-shape city names should share a signature")
	}
	open := func(s string) string { return Generalize(s, LevelClassRunOpen).String() }
	if open("Chicago") != open("LA"[:2]) && open("Chicago") != open("Boston") {
		t.Error("open signatures of capitalized words should coincide")
	}
}

func TestLCGStrings(t *testing.T) {
	cases := []struct {
		a, b, want string
	}{
		{"90001", "90002", `9000\D`},
		{"90001", "90101", `90\D01`},
		{"60601", "60603", `6060\D`},
		{"abc", "abd", `ab\LL`},
		{"A1", "B2", `\LU\D`},
		{"cat", "dog", `\LL{3}`},
		{"90001", "9000", `\D+`}, // unequal length digits widen to open run
	}
	for _, c := range cases {
		got := LCGAll([]string{c.a, c.b})
		if got.String() != c.want {
			t.Errorf("LCGAll(%q,%q) = %q, want %q", c.a, c.b, got.String(), c.want)
		}
		if !got.Matches(c.a) || !got.Matches(c.b) {
			t.Errorf("LCGAll(%q,%q) does not match its inputs", c.a, c.b)
		}
	}
}

func TestLCGAll(t *testing.T) {
	vals := []string{"90001", "90002", "90003", "90004"}
	p := LCGAll(vals)
	if got := p.String(); got != `9000\D` {
		t.Errorf("LCGAll = %q", got)
	}
	for _, v := range vals {
		if !p.Matches(v) {
			t.Errorf("LCGAll result should match %q", v)
		}
	}
	if p2 := LCGAll(nil); len(p2.toks) != 0 {
		t.Error("LCGAll(nil) should be empty pattern")
	}
	if p3 := LCGAll([]string{"solo"}); p3.String() != "solo" {
		t.Errorf("LCGAll single = %q", p3.String())
	}
}

func TestMinLenAndUnbounded(t *testing.T) {
	p := MustParse(`900\D{2}`)
	if p.MinLen() != 5 || p.HasUnbounded() {
		t.Errorf("900\\D{2}: MinLen=%d unbounded=%v", p.MinLen(), p.HasUnbounded())
	}
	q := MustParse(`\LU\LL*`)
	if q.MinLen() != 1 || !q.HasUnbounded() {
		t.Errorf("\\LU\\LL*: MinLen=%d unbounded=%v", q.MinLen(), q.HasUnbounded())
	}
}

func TestLiteralAndAnyString(t *testing.T) {
	p := Literal("a b")
	if got := p.String(); got != `a\ b` {
		t.Errorf("Literal string form = %q", got)
	}
	if !p.Matches("a b") || p.Matches("ab") {
		t.Error("Literal semantics wrong")
	}
	if !AnyString().Matches("") {
		t.Error(`\A* should match ""`)
	}
}

func TestConcat(t *testing.T) {
	p := Literal("90").Concat(MustParse(`\D{3}`))
	if got := p.String(); got != `90\D{3}` {
		t.Errorf("Concat = %q", got)
	}
	if !p.Matches("90123") || p.Matches("9012") {
		t.Error("Concat semantics wrong")
	}
}

func TestTokenAccessors(t *testing.T) {
	p := MustParse(`a\D+`)
	toks := p.Tokens()
	if len(toks) != 2 || toks[0].Lit != 'a' || !toks[1].IsClass {
		t.Fatalf("Tokens = %+v", toks)
	}
	// Mutating the copy must not affect the pattern.
	toks[0].Lit = 'z'
	if p.String() != `a\D+` {
		t.Error("Tokens() leaked internal state")
	}
	if gentree.ClassOf('a') != gentree.Lower {
		t.Error("sanity")
	}
}

// AppendSignature renders the class-run signature without building the
// pattern; it must spell exactly what the pattern's own String does, on
// multi-byte and invalid UTF-8 input too.
func TestAppendSignatureMatchesClassRunRendering(t *testing.T) {
	values := []string{"", "a", "90001", "60603-6263", "F-9-107", "Holloway, Donald E.",
		"héllo", "日本語", "\xff", "a\xffb", "aaaaaaaaaaaa", "  ", `a\b{c}`}
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "B", "1", " ", "-", "é", "日", "\xff", "\\"}
	for i := 0; i < 300; i++ {
		var b strings.Builder
		for n := rng.Intn(14); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		values = append(values, b.String())
	}
	for _, v := range values {
		want := classRuns(v, false).String()
		if got := string(AppendSignature(nil, v)); got != want {
			t.Errorf("AppendSignature(%q) = %q, want %q", v, got, want)
		}
	}
	if got := string(AppendSignature([]byte("x:"), "90001")); got != `x:\D{5}` {
		t.Errorf("AppendSignature must append to dst, got %q", got)
	}
}
