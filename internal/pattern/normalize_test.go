package pattern

import (
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/gentree"
)

// equivalent reports whether p and q match exactly the same strings: the
// oracle Normalize is checked against.
func equivalent(p, q Pattern) bool { return p.Contains(q) && q.Contains(p) }

func TestNormalizeCanonicalForms(t *testing.T) {
	cases := []struct{ in, want string }{
		{`\D\D`, `\D{2}`},
		{`\D{2}\D{3}`, `\D{5}`},
		{`\D*\D`, `\D+`},
		{`\D\D*`, `\D+`},
		{`\D*\D*`, `\D*`},
		{`\D+\D+`, `\D{2}\D*`},
		{`\A*\A*`, `\A*`},
		{`\D*\A*`, `\A*`},
		{`\A*\LL*`, `\A*`},
		{`\LL*\A+`, `\A+`},
		{`\LL*\D*\A*`, `\A*`},
		{`\D{1}`, `\D`},
		{`\LL{2}\A*`, `\LL{2}\A*`}, // must NOT widen mandatory lowers
		{`\A{2}\LL*`, `\A{2}\LL*`}, // bounded \A cannot absorb a star
		{`900\D{2}`, `900\D{2}`},   // literals untouched
		{`a\D\Db`, `a\D{2}b`},
		{`\LU\LL*\ \A*`, `\LU\LL*\ \A*`},
		{``, ``},
	}
	for _, c := range cases {
		got := MustParse(c.in).Normalize().String()
		if got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: normalization preserves the language exactly, checked with
// the containment decision procedure.
func TestNormalizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	classes := []gentree.Class{gentree.Upper, gentree.Lower, gentree.Digit, gentree.Symbol, gentree.All}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(5)
		var toks []Token
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				toks = append(toks, LitTok(rune('a'+rng.Intn(3))))
				continue
			}
			tok := ClassTok(classes[rng.Intn(len(classes))])
			switch rng.Intn(4) {
			case 0:
			case 1:
				tok = tok.WithCount(1 + rng.Intn(3))
			case 2:
				tok = tok.WithQuant(Plus)
			default:
				tok = tok.WithQuant(Star)
			}
			toks = append(toks, tok)
		}
		p := New(toks...)
		q := p.Normalize()
		if !equivalent(p, q) {
			t.Fatalf("Normalize changed language: %q -> %q", p.String(), q.String())
		}
		// Idempotent.
		if !q.Normalize().Equal(q) {
			t.Fatalf("Normalize not idempotent: %q -> %q -> %q",
				p.String(), q.String(), q.Normalize().String())
		}
		// Never longer.
		if len(q.toks) > len(p.toks) {
			t.Fatalf("Normalize grew the pattern: %q -> %q", p.String(), q.String())
		}
	}
}

func TestNormalizeTerminates(t *testing.T) {
	// Forms whose canonical rendering equals the merge input must not
	// loop: \D{2}\D* re-renders identically.
	p := MustParse(`\D{2}\D*`)
	if got := p.Normalize().String(); got != `\D{2}\D*` {
		t.Errorf("Normalize = %q", got)
	}
}
