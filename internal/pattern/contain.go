package pattern

import (
	"slices"

	"github.com/anmat/anmat/internal/gentree"
)

// Contains reports whether p' (the receiver's argument) is contained by p:
// p.Contains(q) is true iff every string matching q also matches p, i.e.
// q ⊆ p in the paper's notation (p is more general than q).
//
// The check is exact for the restricted pattern language: it decides
// language inclusion L(q) ⊆ L(p) via an on-the-fly product of NFA(q) with
// the determinization of NFA(p), over a symbolic alphabet with one symbol
// per literal rune appearing in either pattern plus one representative per
// base character class.
func (p Pattern) Contains(q Pattern) bool {
	return included(compiled(q), compiled(p), symbolicAlphabet(p, q))
}

// ContainedBy is the paper-direction convenience: p ⊆ q.
func (p Pattern) ContainedBy(q Pattern) bool { return q.Contains(p) }

// EquivalentTo reports whether p and q match exactly the same strings.
func (p Pattern) EquivalentTo(q Pattern) bool {
	return p.Contains(q) && q.Contains(p)
}

// symbolicAlphabet builds a finite alphabet sufficient to distinguish the
// languages of p and q: every literal rune referenced by either pattern,
// plus a representative character for each base class chosen to avoid the
// literals. Transitions only test literal equality or class membership, so
// two characters of the same class that are not referenced literals are
// indistinguishable to both automata. The literals come first, sorted, then
// the representatives in class order.
func symbolicAlphabet(p, q Pattern) []rune {
	alpha := make([]rune, 0, len(p.toks)+len(q.toks)+len(classMembers))
	for _, toks := range [2][]Token{p.toks, q.toks} {
		for _, t := range toks {
			if !t.IsClass {
				alpha = append(alpha, t.Lit)
			}
		}
	}
	slices.Sort(alpha)
	alpha = slices.Compact(alpha)
	lits := alpha
	for _, members := range classMembers {
		// If every listed member of the class is a literal, the literals
		// already stand for it.
		for _, r := range members {
			if _, isLit := slices.BinarySearch(lits, r); !isLit {
				alpha = append(alpha, r)
				break
			}
		}
	}
	return alpha
}

// classMembers lists, per base class, the characters symbolicAlphabet tries
// in order as the class's representative.
var classMembers = [4]string{
	gentree.Upper:  "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
	gentree.Lower:  "abcdefghijklmnopqrstuvwxyz",
	gentree.Digit:  "0123456789",
	gentree.Symbol: " !#$%&()-./:;?@_~^|<>=,",
}

// Intersects reports whether some string matches both p and q. The
// pattern index uses it to prune signature groups that cannot contain a
// match for a query pattern.
func (p Pattern) Intersects(q Pattern) bool {
	a, b := compiled(p), compiled(q)
	alpha := symbolicAlphabet(p, q)
	if a.small && b.small {
		return reachSmall(a, b, alpha, true)
	}
	return intersectsSets(a, b, alpha)
}

// included decides L(a) ⊆ L(b): no string may drive a to acceptance while
// b rejects it. Patterns discovery emits on realistic cells compile to at
// most 64 states, and their product runs on machine words; the stateSet
// product decides everything larger.
func included(a, b *nfa, alpha []rune) bool {
	if a.small && b.small {
		return !reachSmall(a, b, alpha, false)
	}
	return includedSets(a, b, alpha)
}

// reachSmall explores the reachable pairs (subset of a-states, subset of
// b-states) of two small automata over the symbolic alphabet, each subset
// one machine word, and reports whether in some pair a accepts while b's
// acceptance equals bAccepts: true asks for a common string (Intersects),
// false for a counterexample to L(a) ⊆ L(b).
func reachSmall(a, b *nfa, alpha []rune, bAccepts bool) bool {
	type pair struct{ sa, sb uint64 }
	hit := func(p pair) bool {
		return p.sa&a.accMask != 0 && (p.sb&b.accMask != 0) == bAccepts
	}
	start := pair{a.epsClo[0], b.epsClo[0]}
	if hit(start) {
		return true
	}
	var buf [32]pair
	queue := append(buf[:0], start)
	seen := map[pair]struct{}{start: {}}
	for head := 0; head < len(queue); head++ {
		f := queue[head]
		for _, r := range alpha {
			n := pair{sa: a.stepSmall(f.sa, r)}
			if n.sa == 0 {
				continue // a rejects every extension on r
			}
			n.sb = b.stepSmall(f.sb, r)
			if bAccepts && n.sb == 0 {
				continue // so does b, and a common string needs both
			}
			if hit(n) {
				return true
			}
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				queue = append(queue, n)
			}
		}
	}
	return false
}

// intersectsSets is Intersects over stateSets: the path for automata past
// 64 states, and the oracle the word-sized product is fuzzed against.
func intersectsSets(a, b *nfa, alpha []rune) bool {
	type pair struct{ ka, kb string }
	sa, sb := a.start(), b.start()
	if a.accepts(sa) && b.accepts(sb) {
		return true
	}
	seen := map[pair]bool{{sa.key(), sb.key()}: true}
	type frame struct{ sa, sb stateSet }
	queue := []frame{{sa, sb}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, r := range alpha {
			na := a.step(f.sa, r)
			if na.empty() {
				continue
			}
			nb := b.step(f.sb, r)
			if nb.empty() {
				continue
			}
			if a.accepts(na) && b.accepts(nb) {
				return true
			}
			pk := pair{na.key(), nb.key()}
			if !seen[pk] {
				seen[pk] = true
				queue = append(queue, frame{na, nb})
			}
		}
	}
	return false
}

// includedSets is included over stateSets (see intersectsSets): it explores
// reachable pairs (subset of a-states, subset of b-states) over the
// symbolic alphabet, looking for a pair where a accepts but b does not.
func includedSets(a, b *nfa, alpha []rune) bool {
	type pair struct{ ka, kb string }
	sa, sb := a.start(), b.start()
	if a.accepts(sa) && !b.accepts(sb) {
		return false
	}
	seen := map[pair]bool{{sa.key(), sb.key()}: true}
	type frame struct{ sa, sb stateSet }
	queue := []frame{{sa, sb}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, r := range alpha {
			na := a.step(f.sa, r)
			if na.empty() {
				continue // a rejects every extension on r; inclusion cannot fail here
			}
			nb := b.step(f.sb, r)
			if a.accepts(na) && !b.accepts(nb) {
				return false
			}
			pk := pair{na.key(), nb.key()}
			if !seen[pk] {
				seen[pk] = true
				queue = append(queue, frame{na, nb})
			}
		}
	}
	return true
}
