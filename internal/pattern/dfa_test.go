package pattern

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Property: MatchesDFA agrees with Matches on random patterns and values.
func TestDFAAgreesWithNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pats := []string{
		`850\D{7}`, `\LU\LL*\ \A*`, `John\ \A*`, `\D{5}`, `\D*`,
		`F-\D-\D{3}`, `900\D{2}`, `\A*,\ Donald\A*`, `\LL+\D*`, `\S\S`,
	}
	for _, ps := range pats {
		p := MustParse(ps)
		for i := 0; i < 200; i++ {
			v := randomValue(rng)
			if got, want := p.MatchesDFA(v), p.Matches(v); got != want {
				t.Fatalf("MatchesDFA(%q, %q) = %v, Matches = %v", ps, v, got, want)
			}
		}
		// Also check strings that definitely match.
		for i := 0; i < 20; i++ {
			// Build a value by generalizing then sampling is complex;
			// reuse known positives for anchored patterns.
			switch ps {
			case `850\D{7}`:
				if !p.MatchesDFA("8505467600") {
					t.Fatal("positive rejected")
				}
			case `\D{5}`:
				if !p.MatchesDFA("12345") {
					t.Fatal("positive rejected")
				}
			}
		}
	}
}

// TestDFAConcurrent starts eight matchers on a cold automaton over values
// that each force states no earlier value built, so under -race every way
// a transition becomes visible is exercised: cells stored into the current
// table, the table replaced by a larger generation mid-match, two matchers
// asking for the same cell. Both builders run: words (≤ 64 NFA states) and
// stateSets.
func TestDFAConcurrent(t *testing.T) {
	for _, ps := range []string{`\LU\LL*\ \A*`, `\D{40}\LU*`, `\LL{3}\D{90}x*`} {
		p := MustParse(ps) // a fresh pattern: nothing of its automaton is built
		values := []string{"John Charles", "Susan Boyle", "nope", "X y", "Holloway, Donald"}
		for n := 0; n <= 100; n += 3 {
			digits := strings.Repeat("7", n)
			values = append(values, digits, digits+"QRS", "abc"+digits, "abc"+digits+"xx", digits+"é", digits+"\xff")
		}
		want := make([]bool, len(values))
		for i, v := range values {
			want[i] = p.Matches(v)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i := range values {
						// Each matcher walks the values from its own offset,
						// half of them backwards.
						k := (i + w*len(values)/8) % len(values)
						if w%2 == 1 {
							k = len(values) - 1 - k
						}
						if p.MatchesDFA(values[k]) != want[k] {
							t.Errorf("%s: divergence on %q under concurrency", ps, values[k])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestNecessaryLiteral pins what the prefilter derives from a token list:
// the longest run of mandatory literals and where it is anchored.
func TestNecessaryLiteral(t *testing.T) {
	cases := []struct {
		pat            string
		lit            string
		atStart, atEnd bool
	}{
		{`\A*,\ Tom\A*`, ", Tom", false, false},
		{`615\D{7}`, "615", true, false},
		{`\A*\ Angeles`, " Angeles", false, true},
		{`a*bc`, "bc", false, true},
		{`\D{3}`, "", false, false},
		{`ab{2}c`, "abbc", true, true}, // {N} expands
		{`xa+y`, "xa", true, false},    // a+ ends one run and starts the next; first of equals wins
		{`a+`, "a", true, false},
		{`ab\D+cde\LL`, "cde", false, false},
		{`a�b`, "a", true, false}, // U+FFFD also stands for invalid bytes: never compared
		{``, "", false, false},
	}
	for _, c := range cases {
		lit, atStart, atEnd := necessaryLiteral(MustParse(c.pat).toks)
		if lit != c.lit || atStart != c.atStart || atEnd != c.atEnd {
			t.Errorf("necessaryLiteral(%s) = %q start=%v end=%v, want %q start=%v end=%v",
				c.pat, lit, atStart, atEnd, c.lit, c.atStart, c.atEnd)
		}
	}
}

func TestDFAEmptyAndEdge(t *testing.T) {
	if !MustParse(`\A*`).MatchesDFA("") {
		t.Error(`\A* should accept ""`)
	}
	if MustParse(`\D+`).MatchesDFA("") {
		t.Error(`\D+ should reject ""`)
	}
	if !New().MatchesDFA("") || New().MatchesDFA("x") {
		t.Error("empty pattern accepts exactly ε")
	}
}

func BenchmarkDFAvsNFA(b *testing.B) {
	p := MustParse(`\LU\LL*\ \A*`)
	v := "Holloway, Donald E."
	b.Run("NFA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Matches(v)
		}
	})
	b.Run("DFA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.MatchesDFA(v)
		}
	})
}
