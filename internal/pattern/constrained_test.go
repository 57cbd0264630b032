package pattern

import (
	"testing"
)

func TestConstrainedParseAndString(t *testing.T) {
	cases := []string{
		`<\LU\LL*\ >\A*`,
		`<John\ >\A*`,
		`<\LU\LL*\ >\A*\ <\LU\LL*>`,
		`<900>\D{2}`,
	}
	for _, s := range cases {
		q, err := ParseConstrained(s)
		if err != nil {
			t.Errorf("ParseConstrained(%q): %v", s, err)
			continue
		}
		if got := q.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		q2, err := ParseConstrained(q.String())
		if err != nil || q2.String() != q.String() {
			t.Errorf("re-parse of %q unstable", s)
		}
	}
}

func TestConstrainedParseErrors(t *testing.T) {
	bad := []string{
		`\A*`,  // no constrained segment
		`<\A*`, // unterminated
		`<\L>`, // bad inner pattern
		`abc`,  // no constrained segment
	}
	for _, s := range bad {
		if _, err := ParseConstrained(s); err == nil {
			t.Errorf("ParseConstrained(%q) should fail", s)
		}
	}
}

func TestNewConstrainedRequiresAnnotation(t *testing.T) {
	_, err := NewConstrained(Segment{Pat: MustParse(`\A*`)})
	if err == nil {
		t.Fatal("expected error for unconstrained pattern")
	}
	q, err := NewConstrained(
		Segment{Pat: MustParse(`\LU\LL*\ `), Constrained: true},
		Segment{Pat: MustParse(`\A*`)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Embedded().String(); got != `\LU\LL*\ \A*` {
		t.Errorf("Embedded = %q", got)
	}
}

// Example 2 of the paper: Q1 = <\LU\LL*\ >\A* over names.
func TestPaperExample2(t *testing.T) {
	q1 := MustParseConstrained(`<\LU\LL*\ >\A*`)

	r1 := "John Charles"
	r2 := "John Bosco"
	r3 := "Susan Orlean"
	r4 := "Susan Boyle"

	for _, s := range []string{r1, r2, r3, r4} {
		if !q1.Embedded().Matches(s) {
			t.Errorf("%q should match Q1", s)
		}
	}
	// r1 ≡Q1 r2 because both extract first name "John ".
	if !q1.EquivalentUnder(r1, r2) {
		t.Error("John Charles ≡Q1 John Bosco expected")
	}
	if !q1.EquivalentUnder(r3, r4) {
		t.Error("Susan Orlean ≡Q1 Susan Boyle expected")
	}
	if q1.EquivalentUnder(r1, r3) {
		t.Error("John ≢Q1 Susan")
	}

	// Q2 constrains first and last name; Q2 ⊑ Q1.
	q2 := MustParseConstrained(`<\LU\LL*\ >\A*<\LU\LL*>`)
	if !q2.RestrictionOf(q1) {
		t.Error("Q2 should be a restriction of Q1")
	}
	if q1.RestrictionOf(q2) {
		t.Error("Q1 should not be a restriction of Q2")
	}
}

func TestExtract(t *testing.T) {
	q := MustParseConstrained(`<John\ >\A*`)
	keys := q.Extract("John Charles")
	if len(keys) != 1 || keys[0] != "John " {
		t.Fatalf("Extract = %q", keys)
	}
	if n := len(q.Extract("Susan Orlean")); n != 0 {
		t.Fatalf("Extract on non-match should be empty, got %d", n)
	}

	// Constrained prefix of a zip.
	zq := MustParseConstrained(`<\D{3}>\D{2}`)
	keys = zq.Extract("90001")
	if len(keys) != 1 || keys[0] != "900" {
		t.Fatalf("zip Extract = %q", keys)
	}
}

func TestExtractMultipleKeys(t *testing.T) {
	// Ambiguous split: <\LL*>\LL* can split "ab" several ways.
	q := MustParseConstrained(`<\LL*>\LL*`)
	keys := q.Extract("ab")
	want := map[string]bool{"": true, "a": true, "ab": true}
	if len(keys) != len(want) {
		t.Fatalf("Extract = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
	// Equivalence via intersection: "ab" and "ax" share key "a" and "".
	if !q.EquivalentUnder("ab", "ax") {
		t.Error("intersection semantics expected equivalence")
	}
}

func TestEquivalentUnderZip(t *testing.T) {
	// λ5: first three digits of a 5-digit zip determine the city.
	q := MustParseConstrained(`<\D{3}>\D{2}`)
	if !q.EquivalentUnder("90001", "90004") {
		t.Error("90001 ≡ 90004 under first-3-digits")
	}
	if q.EquivalentUnder("90001", "91001") {
		t.Error("900xx ≢ 910xx")
	}
	if q.EquivalentUnder("90001", "9000") {
		t.Error("non-matching string cannot be equivalent")
	}
}

func TestWholeValue(t *testing.T) {
	q := WholeValue(MustParse(`\D{5}`))
	if !q.Embedded().Matches("90001") {
		t.Error("whole-value should match")
	}
	if !q.EquivalentUnder("90001", "90001") {
		t.Error("identical values must be equivalent")
	}
	if q.EquivalentUnder("90001", "90002") {
		t.Error("whole-value equivalence is plain equality")
	}
}

func TestPrefixKey(t *testing.T) {
	q := PrefixKey(Literal("900"), MustParse(`\D{2}`))
	if got := q.String(); got != `<900>\D{2}` {
		t.Errorf("PrefixKey = %q", got)
	}
	if !q.EquivalentUnder("90001", "90099") {
		t.Error("same prefix should be equivalent")
	}
}

// Regression (found by FuzzConstrained): invalid UTF-8 input decodes to
// U+FFFD consuming one byte; extraction offsets must follow the byte
// positions, keeping Extract and Matches consistent.
func TestExtractInvalidUTF8(t *testing.T) {
	q := MustParseConstrained(`<>\A`)
	v := "\x80"
	if q.Embedded().Matches(v) != (len(q.Extract(v)) > 0) {
		t.Fatalf("Extract/Matches disagree on invalid UTF-8: matches=%v keys=%v",
			q.Embedded().Matches(v), q.Extract(v))
	}
	q2 := MustParseConstrained(`<\A>\A*`)
	v2 := "\x80\x81abc"
	if q2.Embedded().Matches(v2) != (len(q2.Extract(v2)) > 0) {
		t.Fatal("multi-byte invalid sequence misaligned")
	}
}

func TestRestrictionOfWholeVsPrefix(t *testing.T) {
	// Whole-value equality is a restriction of prefix equality.
	whole := WholeValue(MustParse(`\D{5}`))
	prefix := MustParseConstrained(`<\D{3}>\D{2}`)
	if !whole.RestrictionOf(prefix) {
		t.Error("whole-value should restrict prefix agreement")
	}
	if prefix.RestrictionOf(whole) {
		t.Error("prefix agreement should not restrict whole-value equality")
	}
}

// TestUncompiledSharesNoAutomaton: Uncompiled keeps the definition and
// none of the automata matching compiled for the original.
func TestUncompiledSharesNoAutomaton(t *testing.T) {
	q := MustParseConstrained(`<\D{3}>\D{7}`)
	m := q.Embedded().Matcher()
	if !m.Match("2125550000") || q.Embedded().meta.dfa == nil {
		t.Fatal("matching compiled no automaton: the check below would check nothing")
	}
	u := q.Uncompiled()
	if u.String() != q.String() {
		t.Errorf("Uncompiled renders %q, the original %q", u, q)
	}
	if u.emb == q.emb || u.segs[0].Pat.meta == q.segs[0].Pat.meta {
		t.Error("Uncompiled shares the original's compiled state")
	}
	if u.Embedded().meta.dfa != nil {
		t.Error("Uncompiled carries a compiled automaton")
	}
}
