package pattern

import (
	"math/bits"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/gentree"
)

// nfa is a nondeterministic finite automaton compiled from a Pattern.
// States are dense integers; state 0 is the start state and accept is the
// single accepting state. Edges carry single-character predicates (a
// literal rune or a generalization-tree class); eps holds epsilon moves.
type nfa struct {
	n      int      // number of states
	edges  [][]edge // edges[s] = labeled transitions out of s
	eps    [][]int  // eps[s] = epsilon transitions out of s
	accept int

	// Small-automaton fast path: when every state fits in one machine
	// word (n <= 64, true for every pattern the generalizer or parser
	// produces on realistic cells), state sets are plain uint64 masks and
	// epsClo[s] is the precomputed epsilon closure of {s} (including s).
	// The matching loops then run with zero heap allocation, and the
	// containment product (contain.go) runs on pairs of words.
	small   bool
	epsClo  []uint64
	accMask uint64
}

type edge struct {
	isClass bool
	class   gentree.Class
	lit     rune
	to      int
}

func (e edge) matches(r rune) bool {
	if e.isClass {
		return e.class.Matches(r)
	}
	return e.lit == r
}

// compile builds the NFA for p using a Thompson-style construction.
// Quantifiers expand as:
//
//	t        cur --t--> new
//	t{N}     N chained copies
//	t+       cur --t--> new, new --t--> new
//	t*       cur --ε--> new, new --t--> new
func compile(p Pattern) *nfa {
	a := &nfa{}
	newState := func() int {
		a.edges = append(a.edges, nil)
		a.eps = append(a.eps, nil)
		a.n++
		return a.n - 1
	}
	addEdge := func(from int, t Token, to int) {
		a.edges[from] = append(a.edges[from], edge{
			isClass: t.IsClass, class: t.Class, lit: t.Lit, to: to,
		})
	}
	cur := newState()
	for _, t := range p.toks {
		switch t.Quant {
		case One:
			nxt := newState()
			addEdge(cur, t, nxt)
			cur = nxt
		case Exactly:
			for i := 0; i < t.N; i++ {
				nxt := newState()
				addEdge(cur, t, nxt)
				cur = nxt
			}
		case Plus:
			nxt := newState()
			addEdge(cur, t, nxt)
			addEdge(nxt, t, nxt)
			cur = nxt
		case Star:
			nxt := newState()
			a.eps[cur] = append(a.eps[cur], nxt)
			addEdge(nxt, t, nxt)
			cur = nxt
		}
	}
	a.accept = cur
	a.finishSmall()
	return a
}

// finishSmall precomputes the word-sized closure table when the automaton
// fits in 64 states. Epsilon edges only point forward (Star creates
// cur -> nxt with nxt > cur), so a single reverse pass computes the
// transitive closures.
func (a *nfa) finishSmall() {
	if a.n > 64 {
		return
	}
	a.small = true
	a.epsClo = make([]uint64, a.n)
	for i := a.n - 1; i >= 0; i-- {
		m := uint64(1) << uint(i)
		for _, to := range a.eps[i] {
			m |= a.epsClo[to]
		}
		a.epsClo[i] = m
	}
	a.accMask = 1 << uint(a.accept)
}

// stepSmall advances a word-sized state set over r. OR-ing the closure of
// each edge target is exactly add-then-epsilon-close, because the
// closures are transitive.
func (a *nfa) stepSmall(cur uint64, r rune) uint64 {
	var next uint64
	for rem := cur; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		for _, e := range a.edges[i] {
			if e.matches(r) {
				next |= a.epsClo[e.to]
			}
		}
	}
	return next
}

// matchSmall is Matches over the word-sized path: zero heap allocation.
func (a *nfa) matchSmall(s string) bool {
	cur := a.epsClo[0]
	for _, r := range s {
		cur = a.stepSmall(cur, r)
		if cur == 0 {
			return false
		}
	}
	return cur&a.accMask != 0
}

// appendPrefixLensSmall appends to dst every byte length l such that s[:l]
// matches, walking the word-sized path without heap allocation (beyond
// growth of dst itself).
func (a *nfa) appendPrefixLensSmall(dst []int, s string) []int {
	cur := a.epsClo[0]
	if cur&a.accMask != 0 {
		dst = append(dst, 0)
	}
	for off := 0; off < len(s); {
		r, size := utf8.DecodeRuneInString(s[off:])
		cur = a.stepSmall(cur, r)
		if cur == 0 {
			return dst
		}
		off += size
		if cur&a.accMask != 0 {
			dst = append(dst, off)
		}
	}
	return dst
}

// stateSet is a bit set over NFA states.
type stateSet []uint64

func newStateSet(n int) stateSet { return make(stateSet, (n+63)/64) }

func (s stateSet) add(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s stateSet) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

func (s stateSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// key returns a compact string form usable as a map key.
func (s stateSet) key() string {
	b := make([]byte, len(s)*8)
	for i, w := range s {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (uint(j) * 8))
		}
	}
	return string(b)
}

// closure expands s in place with epsilon moves.
func (a *nfa) closure(s stateSet) {
	var stack []int
	for i := 0; i < a.n; i++ {
		if s.has(i) {
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range a.eps[st] {
			if !s.has(to) {
				s.add(to)
				stack = append(stack, to)
			}
		}
	}
}

// start returns the eps-closed start set.
func (a *nfa) start() stateSet {
	s := newStateSet(a.n)
	s.add(0)
	a.closure(s)
	return s
}

// step advances the set s over character r, returning the eps-closed
// successor set.
func (a *nfa) step(s stateSet, r rune) stateSet {
	out := newStateSet(a.n)
	a.stepInto(s, r, out)
	return out
}

// stepInto is step with a caller-provided output buffer; out is cleared
// first. Used by the hot matching loop to avoid per-character allocation.
func (a *nfa) stepInto(s stateSet, r rune, out stateSet) {
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < a.n; i++ {
		if !s.has(i) {
			continue
		}
		for _, e := range a.edges[i] {
			if e.matches(r) {
				out.add(e.to)
			}
		}
	}
	a.closure(out)
}

// accepts reports whether the set contains the accepting state.
func (a *nfa) accepts(s stateSet) bool { return s.has(a.accept) }
