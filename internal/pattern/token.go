// Package pattern implements the restricted, regex-like pattern language of
// the ANMAT paper (Section 2): sequences of characters and character
// classes drawn from the generalization tree, with {N}, + and * quantifiers
// and no recursion. It provides matching (s 7→ P), containment (P ⊆ P'),
// generalization of strings into patterns, and constrained patterns used on
// the left-hand side of pattern functional dependencies.
package pattern

import (
	"fmt"
	"strings"
	"sync"

	"github.com/anmat/anmat/internal/gentree"
)

// Quant is a token quantifier.
type Quant uint8

const (
	// One means the token matches exactly one occurrence.
	One Quant = iota
	// Exactly means the token matches exactly N occurrences, written {N}.
	Exactly
	// Plus means one or more occurrences, written +.
	Plus
	// Star means zero or more occurrences, written *.
	Star
)

// Token is one element of a pattern: either a literal character or a
// character class from the generalization tree, with a quantifier.
type Token struct {
	// IsClass selects between Class (true) and Lit (false).
	IsClass bool
	// Class is the character class when IsClass is true.
	Class gentree.Class
	// Lit is the literal character when IsClass is false.
	Lit rune
	// Quant is the quantifier applied to the token.
	Quant Quant
	// N is the repetition count when Quant is Exactly.
	N int
}

// LitTok returns a literal token matching exactly the character r once.
func LitTok(r rune) Token { return Token{Lit: r} }

// ClassTok returns a class token matching one character of class c.
func ClassTok(c gentree.Class) Token { return Token{IsClass: true, Class: c} }

// WithQuant returns a copy of t with the given quantifier. For Exactly,
// use WithCount instead.
func (t Token) WithQuant(q Quant) Token {
	t.Quant = q
	return t
}

// WithCount returns a copy of t quantified to exactly n occurrences.
func (t Token) WithCount(n int) Token {
	t.Quant = Exactly
	t.N = n
	return t
}

// MinLen returns the minimum number of characters the token can consume.
func (t Token) MinLen() int {
	switch t.Quant {
	case One:
		return 1
	case Exactly:
		return t.N
	case Plus:
		return 1
	default: // Star
		return 0
	}
}

// String renders the token in the paper's pattern syntax.
func (t Token) String() string {
	var b strings.Builder
	if t.IsClass {
		b.WriteString(t.Class.String())
	} else {
		b.WriteString(escapeLit(t.Lit))
	}
	switch t.Quant {
	case Exactly:
		fmt.Fprintf(&b, "{%d}", t.N)
	case Plus:
		b.WriteByte('+')
	case Star:
		b.WriteByte('*')
	}
	return b.String()
}

// escapeLit renders a literal character, escaping the characters that have
// meaning in the pattern syntax (backslash, quantifiers, braces, space).
func escapeLit(r rune) string {
	switch r {
	case '\\', '{', '}', '+', '*', ' ':
		return `\` + string(r)
	default:
		return string(r)
	}
}

// Pattern is a sequence of tokens: the pattern P of the paper. The zero
// value is the empty pattern, which matches only the empty string ε.
//
// Every pattern built through the package constructors carries a meta
// pointer that memoizes the rendered key and the compiled automata, so
// the matching hot path never re-renders or re-compiles per call. The
// tokens stay the source of truth: meta is derived state shared by all
// copies of the value and never participates in equality.
type Pattern struct {
	toks []Token
	meta *patMeta
}

// patMeta memoizes per-pattern derived state. It is attached once at
// construction and shared (by pointer) across all copies of the Pattern
// value, so a tableau row matched against a million cells compiles its
// automaton exactly once and never re-renders its key.
type patMeta struct {
	keyOnce sync.Once
	key     string

	minOnce sync.Once
	minLen  int

	nfaOnce sync.Once
	nfa     *nfa

	dfaOnce sync.Once
	dfa     *dfa
}

// mk wraps a token slice as a Pattern with a fresh meta block. The slice
// is owned by the pattern after the call.
func mk(toks []Token) Pattern {
	return Pattern{toks: toks, meta: &patMeta{}}
}

// New builds a pattern from tokens.
func New(toks ...Token) Pattern {
	cp := make([]Token, len(toks))
	copy(cp, toks)
	return mk(cp)
}

// Tokens returns a copy of the pattern's tokens.
func (p Pattern) Tokens() []Token {
	cp := make([]Token, len(p.toks))
	copy(cp, p.toks)
	return cp
}

// MinLen returns the minimum length of a string matching the pattern.
func (p Pattern) MinLen() int {
	if p.meta == nil {
		return p.minLen()
	}
	p.meta.minOnce.Do(func() { p.meta.minLen = p.minLen() })
	return p.meta.minLen
}

func (p Pattern) minLen() int {
	n := 0
	for _, t := range p.toks {
		n += t.MinLen()
	}
	return n
}

// HasUnbounded reports whether the pattern contains a + or * quantifier.
func (p Pattern) HasUnbounded() bool {
	for _, t := range p.toks {
		if t.Quant == Plus || t.Quant == Star {
			return true
		}
	}
	return false
}

// String renders the pattern in the paper's syntax, e.g. `900\D{2}` or
// `\LU\LL*\ \A*`.
func (p Pattern) String() string {
	var b strings.Builder
	for _, t := range p.toks {
		b.WriteString(t.String())
	}
	return b.String()
}

// Equal reports whether two patterns are syntactically identical.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.toks) != len(q.toks) {
		return false
	}
	for i := range p.toks {
		if p.toks[i] != q.toks[i] {
			return false
		}
	}
	return true
}

// Key returns a string usable as a map key identifying the pattern.
// The rendering is memoized, so repeated Key calls on the same pattern
// value (or copies of it) are allocation-free after the first.
func (p Pattern) Key() string {
	if p.meta == nil {
		return p.String()
	}
	p.meta.keyOnce.Do(func() { p.meta.key = p.String() })
	return p.meta.key
}

// Concat returns the concatenation of p followed by q.
func (p Pattern) Concat(q Pattern) Pattern {
	toks := make([]Token, 0, len(p.toks)+len(q.toks))
	toks = append(toks, p.toks...)
	toks = append(toks, q.toks...)
	return mk(toks)
}

// AnyString returns the universal pattern \A*, which every string matches.
func AnyString() Pattern {
	return New(ClassTok(gentree.All).WithQuant(Star))
}

// Literal returns the pattern matching exactly the string s.
func Literal(s string) Pattern {
	toks := make([]Token, 0, len(s))
	for _, r := range s {
		toks = append(toks, LitTok(r))
	}
	return mk(toks)
}
