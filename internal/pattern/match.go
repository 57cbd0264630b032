package pattern

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// nfaCache backs compilation for patterns without a meta block (zero
// values, hand-rolled struct literals in tests). Patterns built through
// the package constructors memoize their automaton in the meta block and
// never touch this map after the first call.
var nfaCache sync.Map // string (pattern key) -> *nfa

func compiled(p Pattern) *nfa {
	if p.meta != nil {
		p.meta.nfaOnce.Do(func() { p.meta.nfa = compile(p) })
		return p.meta.nfa
	}
	k := p.Key()
	if v, ok := nfaCache.Load(k); ok {
		return v.(*nfa)
	}
	a := compile(p)
	nfaCache.Store(k, a)
	return a
}

// Matches reports whether s matches (satisfies) the pattern: s 7→ P in the
// paper's notation.
func (p Pattern) Matches(s string) bool {
	// Cheap length pre-check.
	if len(s) < p.MinLen() {
		return false
	}
	a := compiled(p)
	if a.small {
		return a.matchSmall(s)
	}
	cur := a.start()
	next := newStateSet(a.n)
	for _, r := range s {
		a.stepInto(cur, r, next)
		if next.empty() {
			return false
		}
		cur, next = next, cur
	}
	return a.accepts(cur)
}

// AppendMatchPrefixLengths appends to dst, in increasing order, every byte
// length l such that s[:l] matches the pattern and l splits s at a rune
// boundary. The constrained-pattern matcher uses it to enumerate segment
// splits, reusing one buffer across values.
func (p Pattern) AppendMatchPrefixLengths(dst []int, s string) []int {
	a := compiled(p)
	if a.small {
		return a.appendPrefixLensSmall(dst, s)
	}
	cur := a.start()
	next := newStateSet(a.n)
	if a.accepts(cur) {
		dst = append(dst, 0)
	}
	// Decode explicitly rather than re-encoding range runes: an invalid
	// byte decodes to U+FFFD but consumes one byte, and the reported
	// lengths must stay aligned with the input's byte offsets.
	for off := 0; off < len(s); {
		r, size := utf8.DecodeRuneInString(s[off:])
		a.stepInto(cur, r, next)
		if next.empty() {
			return dst
		}
		cur, next = next, cur
		off += size
		if a.accepts(cur) {
			dst = append(dst, off)
		}
	}
	return dst
}

// necessaryLiteral derives the prefilter of a token list: the longest run
// of adjacent mandatory literal characters (unquantified literals and the
// copies of a literal{N}; a literal+ contributes one character to the run
// it ends and one to the run it starts), which every matching value must
// contain. atStart and atEnd report that nothing can precede or follow the
// run, so the value must begin or end with it. Of equally long runs the
// first wins. lit is "" when the pattern has no mandatory literal. The
// literal is compared bytewise, which is exact because every rune but
// U+FFFD has one encoding a value can hold.
func necessaryLiteral(toks []Token) (lit string, atStart, atEnd bool) {
	var run strings.Builder
	runStart := true // no token that can consume a character precedes the run
	flush := func(end bool) {
		if run.Len() > len(lit) {
			lit, atStart, atEnd = run.String(), runStart, end
		}
		run.Reset()
		runStart = false
	}
	for i, t := range toks {
		last := i == len(toks)-1
		switch {
		case t.IsClass || t.Quant == Star || t.Lit == utf8.RuneError:
			// U+FFFD also matches any invalid byte of a value, which no
			// byte comparison would find.
			flush(false)
		case t.Quant == Plus:
			run.WriteRune(t.Lit)
			flush(false)
			run.WriteRune(t.Lit)
		case t.Quant == Exactly:
			for n := 0; n < t.N; n++ {
				run.WriteRune(t.Lit)
			}
		default:
			run.WriteRune(t.Lit)
		}
		if last {
			flush(true)
		}
	}
	return lit, atStart, atEnd
}
