package pattern

import (
	"strconv"

	"github.com/anmat/anmat/internal/gentree"
)

// Level selects how aggressively a string is generalized into a pattern.
// The levels climb the generalization tree of Figure 1: level 0 keeps the
// string itself; level 4 is the universal pattern \A*.
type Level int

const (
	// LevelLiteral keeps every character literal.
	LevelLiteral Level = iota
	// LevelClass replaces each character with its base class.
	LevelClass
	// LevelClassRun replaces characters with base classes and compacts
	// runs of the same class into class{N}.
	LevelClassRun
	// LevelClassRunOpen compacts runs into class+ (length-insensitive).
	LevelClassRunOpen
	// LevelAny is the universal pattern \A*.
	LevelAny
)

// Generalize maps a string to a pattern at the given level. For every s
// and every level, the resulting pattern matches s (the generalization
// invariant; see DESIGN.md §7).
func Generalize(s string, lvl Level) Pattern {
	switch lvl {
	case LevelLiteral:
		return Literal(s)
	case LevelClass:
		var toks []Token
		for _, r := range s {
			toks = append(toks, ClassTok(gentree.ClassOf(r)))
		}
		return mk(toks)
	case LevelClassRun:
		return classRuns(s, false)
	case LevelClassRunOpen:
		return classRuns(s, true)
	default:
		return AnyString()
	}
}

// classRuns compacts maximal runs of same-class characters. With open set,
// runs of length ≥ 2 become class+; otherwise class{N} (N ≥ 2) or a single
// class token.
func classRuns(s string, open bool) Pattern {
	var toks []Token
	rs := []rune(s)
	for i := 0; i < len(rs); {
		c := gentree.ClassOf(rs[i])
		j := i + 1
		for j < len(rs) && gentree.ClassOf(rs[j]) == c {
			j++
		}
		n := j - i
		switch {
		case n == 1:
			toks = append(toks, ClassTok(c))
		case open:
			toks = append(toks, ClassTok(c).WithQuant(Plus))
		default:
			toks = append(toks, ClassTok(c).WithCount(n))
		}
		i = j
	}
	return mk(toks)
}

// Signature returns the LevelClassRun pattern string for s. Discovery and
// the pattern index group cell values by signature: two values share a
// signature iff their class-run generalizations coincide.
func Signature(s string) string {
	return string(AppendSignature(nil, s))
}

// AppendSignature appends Signature(s) to dst without building the
// pattern: it renders classRuns(s, false) directly, one class run at a
// time. Profiling computes a signature per distinct cell value, so the
// caller reuses one buffer and looks the bytes up without allocating.
func AppendSignature(dst []byte, s string) []byte {
	run, n := gentree.Class(0), 0
	for _, r := range s {
		c := gentree.ClassOf(r)
		if n > 0 && c == run {
			n++
			continue
		}
		dst = appendClassRun(dst, run, n)
		run, n = c, 1
	}
	return appendClassRun(dst, run, n)
}

// appendClassRun renders a run of n characters of class c: nothing for an
// empty run, the class for one character, class{n} otherwise.
func appendClassRun(dst []byte, c gentree.Class, n int) []byte {
	if n == 0 {
		return dst
	}
	dst = append(dst, c.String()...)
	if n > 1 {
		dst = append(dst, '{')
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, '}')
	}
	return dst
}

// OpenSignature returns the LevelClassRunOpen pattern string for s,
// grouping values whose class sequences coincide regardless of run length.
func OpenSignature(s string) string {
	return classRuns(s, true).String()
}

// GeneralizePrefix keeps the first k runes of s literal and generalizes
// the remainder to \A* (if nonempty). Discovery uses it to build prefix
// rules such as `900\D{2}` from sample values: the literal prefix anchors
// the rule and the tail is generalized at LevelClassRun.
func GeneralizePrefix(s string, k int) Pattern {
	rs := []rune(s)
	if k > len(rs) {
		k = len(rs)
	}
	head := Literal(string(rs[:k]))
	if k == len(rs) {
		return head
	}
	return head.Concat(classRuns(string(rs[k:]), false))
}

// LCGStrings returns the most specific pattern in the language that
// matches both strings, computed position-wise when the strings have equal
// rune length (literal where the runes agree, least-common-generalization
// class where they differ), and by open-run generalization of both
// otherwise. It is the core "merge" step when discovery folds a set of
// values into one tableau pattern.
func LCGStrings(a, b string) Pattern {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == len(rb) {
		var toks []Token
		for i := range ra {
			if ra[i] == rb[i] {
				toks = append(toks, LitTok(ra[i]))
			} else {
				toks = append(toks, ClassTok(gentree.LCGRunes(ra[i], rb[i])))
			}
		}
		return compactSameClassRuns(mk(toks))
	}
	// Unequal lengths: fall back to merging the open signatures.
	pa, pb := classRuns(a, true), classRuns(b, true)
	if pa.Equal(pb) {
		return pa
	}
	return mergeOpen(pa, pb)
}

// compactSameClassRuns folds consecutive identical single-occurrence class
// tokens into class{N}; literal tokens are kept as-is.
func compactSameClassRuns(p Pattern) Pattern {
	var toks []Token
	for i := 0; i < len(p.toks); {
		t := p.toks[i]
		if !t.IsClass || t.Quant != One {
			toks = append(toks, t)
			i++
			continue
		}
		j := i + 1
		for j < len(p.toks) && p.toks[j].IsClass && p.toks[j].Quant == One && p.toks[j].Class == t.Class {
			j++
		}
		if n := j - i; n > 1 {
			toks = append(toks, ClassTok(t.Class).WithCount(n))
		} else {
			toks = append(toks, t)
		}
		i = j
	}
	return mk(toks)
}

// mergeOpen merges two open-run signatures. If they have the same number
// of tokens, classes are merged pairwise with quantifier widened to +;
// otherwise the result collapses to \A*.
func mergeOpen(a, b Pattern) Pattern {
	if len(a.toks) != len(b.toks) {
		return AnyString()
	}
	var toks []Token
	for i := range a.toks {
		ca := classOfToken(a.toks[i])
		cb := classOfToken(b.toks[i])
		c := gentree.LCG(ca, cb)
		q := Plus
		if a.toks[i].Quant == One && b.toks[i].Quant == One {
			q = One
		}
		toks = append(toks, ClassTok(c).WithQuant(q))
	}
	return mk(toks)
}

func classOfToken(t Token) gentree.Class {
	if t.IsClass {
		return t.Class
	}
	return gentree.ClassOf(t.Lit)
}

// LCGAll folds a slice of strings into one pattern with LCGStrings.
// It returns the empty pattern for no input.
func LCGAll(values []string) Pattern {
	if len(values) == 0 {
		return Pattern{}
	}
	acc := Literal(values[0])
	for _, v := range values[1:] {
		acc = lcgPatternString(acc, v)
	}
	return acc
}

// lcgPatternString merges an accumulated pattern with one more string by
// re-deriving: if the accumulated pattern is all-literal it defers to
// LCGStrings; otherwise it merges token-wise against the string's runes
// when lengths permit, else widens to open signatures.
func lcgPatternString(acc Pattern, v string) Pattern {
	rs := []rune(v)
	if fixedLen, ok := fixedTokenLength(acc); ok && fixedLen == len(rs) {
		var toks []Token
		i := 0
		for _, t := range acc.toks {
			reps := 1
			if t.Quant == Exactly {
				reps = t.N
			}
			for k := 0; k < reps; k++ {
				r := rs[i]
				i++
				if !t.IsClass && t.Lit == r {
					toks = append(toks, LitTok(r))
				} else {
					toks = append(toks, ClassTok(gentree.LCG(classOfToken(t), gentree.ClassOf(r))))
				}
			}
		}
		return compactSameClassRuns(mk(toks))
	}
	return mergeOpen(openOf(acc), classRuns(v, true))
}

// fixedTokenLength reports the exact rune length matched by the pattern
// when it contains no + or * quantifier.
func fixedTokenLength(p Pattern) (int, bool) {
	n := 0
	for _, t := range p.toks {
		switch t.Quant {
		case One:
			n++
		case Exactly:
			n += t.N
		default:
			return 0, false
		}
	}
	return n, true
}

// openOf widens every token of p to its open-run form: classes of literals,
// Exactly and Plus become Plus, Star stays Star.
func openOf(p Pattern) Pattern {
	var toks []Token
	for i := 0; i < len(p.toks); {
		c := classOfToken(p.toks[i])
		q := p.toks[i].Quant
		j := i + 1
		for j < len(p.toks) && classOfToken(p.toks[j]) == c {
			if p.toks[j].Quant != One {
				q = Plus
			}
			j++
		}
		if j-i > 1 || q == Exactly || q == Plus {
			if q == Star {
				toks = append(toks, ClassTok(c).WithQuant(Star))
			} else {
				toks = append(toks, ClassTok(c).WithQuant(Plus))
			}
		} else {
			toks = append(toks, ClassTok(c).WithQuant(q))
		}
		i = j
	}
	return mk(toks)
}
