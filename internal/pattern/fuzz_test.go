package pattern

import "testing"

// FuzzParse checks that Parse never panics and that every successfully
// parsed pattern round-trips through its String rendering.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`\D{5}`, `900\D{2}`, `\LU\LL*\ \A*`, `John\ \A*`, `\A*,\ Donald\A*`,
		`F-\D-\D{3}`, `a{3}b+c*`, `\\`, `\ `, ``, `\L`, `*`, `a{`, `{9}`,
		`\S+\D{12}`, `\A\A\A`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		rendered := p.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q) failed: %v", rendered, err)
		}
		if !p.Equal(back) {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, rendered, back.String())
		}
	})
}

// FuzzParsePattern asserts the parse→render→parse fixpoint at the string
// level: for any input that parses, its rendering must re-parse, and the
// rendering must be a fixed point (render(parse(render(parse(s)))) ==
// render(parse(s))) — otherwise stored patterns (golden files, the PFD
// JSON serialization, durable session snapshots) would drift each time
// they round-trip through the parser. The seed corpus is drawn from the
// patterns the golden CSV corpus actually discovers
// (testdata/golden/*.golden), both in plain and in constrained syntax
// (where < and > parse as literals).
func FuzzParsePattern(f *testing.F) {
	seeds := []string{
		// phone_state.golden
		`<\D{3}>\D{7}`, `<415>\D{7}`, `<713>\D{7}`, `\A{1}<151>\A*`,
		`\D{3}\D{7}`, `\D{10}`,
		// name_gender.golden
		`\A*,\ <Mary>\A*`, `\A*,\ <Donald>\A*`, `<King,\ >\A*`,
		`\A*\ <C.>`, `\A*,\ <Richard>`, `\A*,\ Mary\A*`, `King,\ \A*`,
		// zip goldens
		`\D{5}`, `900\D{2}`, `<900>\D{2}`, `9000\D{1}`,
		// stress shapes
		`\LU\LL*\ \A*`, `a{3}b+c*`, `\\`, `\ `, ``, `\S+\D{12}`,
		`\{literal\}`, `x{65536}`, `\A{2}\A{2}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		rendered := p.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering does not re-parse: %q -> %q: %v", s, rendered, err)
		}
		again := back.String()
		if again != rendered {
			t.Fatalf("render not a parse fixpoint: %q -> %q -> %q", s, rendered, again)
		}
		if !p.Equal(back) {
			t.Fatalf("re-parsed pattern differs: %q -> %q", s, rendered)
		}
	})
}

// FuzzMatch checks that matching never panics, respects the MinLen lower
// bound, and that MatchesDFA — prefilter, byte-indexed symbol table, rune
// fallback — agrees with the NFA walk for arbitrary pattern/value pairs.
// The committed corpus (testdata/fuzz/FuzzMatch) holds the inputs that
// leave the ASCII fast path: non-ASCII literals, invalid UTF-8 values, a
// pattern with more symbols than a byte indexes, and values carrying the
// prefilter's literal at the wrong anchor.
func FuzzMatch(f *testing.F) {
	f.Add(`\D{5}`, "90001")
	f.Add(`\LU\LL*\ \A*`, "John Charles")
	f.Add(`\A*`, "")
	f.Add(`a+b*`, "aab")
	f.Fuzz(func(t *testing.T, ps, v string) {
		p, err := Parse(ps)
		if err != nil {
			return
		}
		got := p.Matches(v)
		if got && len(v) < p.MinLen() {
			t.Fatalf("%q matched %q below MinLen %d", v, ps, p.MinLen())
		}
		if dfa := p.MatchesDFA(v); dfa != got {
			t.Fatalf("DFA/NFA divergence on (%q, %q): %v vs %v", ps, v, dfa, got)
		}
	})
}

// FuzzContains is the differential test of containment on machine words:
// for any two patterns whose automata are small, the word-sized product
// must give the verdicts of the stateSet product, for inclusion in both
// directions and for intersection; and Contains is reflexive whatever the
// size.
func FuzzContains(f *testing.F) {
	f.Add(`\A*,\ Margaret\A*`, `\A*,\ Margaret`)
	f.Add(`\D{5}`, `900\D{2}`)
	f.Add(`\LU\LL*\ \A*`, `John\ \A*`)
	f.Add(`a*`, `a+`)
	f.Add(`\S`, `,`)
	f.Add(``, `\A*`)
	f.Fuzz(func(t *testing.T, ps, qs string) {
		p, err := Parse(ps)
		if err != nil {
			return
		}
		q, err := Parse(qs)
		if err != nil {
			return
		}
		a, b := compiled(p), compiled(q)
		if a.n > 512 || b.n > 512 {
			return // a{65536}: the stateSet product would take minutes
		}
		if !p.Contains(p) {
			t.Fatalf("Contains not reflexive on %q", ps)
		}
		if !a.small || !b.small {
			return
		}
		alpha := symbolicAlphabet(p, q)
		if got, want := !reachSmall(a, b, alpha, false), includedSets(a, b, alpha); got != want {
			t.Fatalf("L(%q) ⊆ L(%q): words %v, stateSets %v", ps, qs, got, want)
		}
		if got, want := !reachSmall(b, a, alpha, false), includedSets(b, a, alpha); got != want {
			t.Fatalf("L(%q) ⊆ L(%q): words %v, stateSets %v", qs, ps, got, want)
		}
		if got, want := reachSmall(a, b, alpha, true), intersectsSets(a, b, alpha); got != want {
			t.Fatalf("L(%q) ∩ L(%q) ≠ ∅: words %v, stateSets %v", ps, qs, got, want)
		}
	})
}

// FuzzConstrained checks the constrained-pattern parser and the
// extraction/equivalence invariants: a string equivalent to itself iff it
// matches the embedded pattern.
func FuzzConstrained(f *testing.F) {
	f.Add(`<\D{3}>\D{2}`, "90001")
	f.Add(`<\LU\LL*\ >\A*`, "John Charles")
	f.Add(`<a>b<c>`, "abc")
	f.Fuzz(func(t *testing.T, qs, v string) {
		q, err := ParseConstrained(qs)
		if err != nil {
			return
		}
		matches := q.Matches(v)
		keys := q.Extract(v)
		if matches != (len(keys) > 0) {
			t.Fatalf("Extract/Matches disagree for (%q, %q): %v vs %d keys", qs, v, matches, len(keys))
		}
		if matches && !q.EquivalentUnder(v, v) {
			t.Fatalf("≡ not reflexive for (%q, %q)", qs, v)
		}
	})
}
