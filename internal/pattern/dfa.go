package pattern

import (
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/gentree"
)

// dfa is a lazily determinized view of an nfa, used by the matching hot
// loop. Input characters are first mapped to a small symbol space — one
// symbol per literal rune referenced by the pattern plus one per
// generalization-tree base class — so the transition table stays tiny and
// every subset construction step is computed at most once.
type dfa struct {
	a    *nfa
	lits map[rune]int // referenced literal -> symbol id
	nsym int          // literals + 4 base classes

	// ascii is the symbol of every ASCII byte, so the matching loop reads
	// ASCII input with no map probe and no gentree.ClassOf call. byteSyms
	// is false when the pattern references more symbols than a byte holds;
	// every character then takes the rune path (decode, then lits).
	ascii    [utf8.RuneSelf]uint8
	byteSyms bool

	// lit is the pattern's necessary literal (see necessaryLiteral): a
	// value lacking it cannot match and never reaches the automaton.
	lit              string
	litStart, litEnd bool

	// tab is the published transition table. Matchers read it without a
	// lock; builders (serialized by mu) fill cells in place with atomic
	// stores and publish a larger copy when it runs out of state rows. A
	// matcher still holding the smaller table only ever finds "unknown"
	// where the newer one knows more, and then comes through build.
	tab atomic.Pointer[dfaTable]

	// Builder state, guarded by mu: the NFA state set behind every DFA
	// state and its reverse index.
	mu    sync.Mutex
	sets  []stateSet
	bySet map[string]int
}

// dfaTable is one published generation of the transition table, sized
// for len(accept) states.
type dfaTable struct {
	// next[state*nsym+symbol]: 0 = not built yet, -1 = dead, else id+1.
	next []atomic.Int32
	// accept[id] is written before any cell naming id is stored, so a
	// matcher that loaded the id also sees its acceptance.
	accept []bool
}

func newDFATable(states, nsym int) *dfaTable {
	return &dfaTable{next: make([]atomic.Int32, states*nsym), accept: make([]bool, states)}
}

// newDFA builds the lazy DFA wrapper for a compiled pattern.
func newDFA(p Pattern, a *nfa) *dfa {
	lits := make(map[rune]int)
	for _, t := range p.toks {
		if !t.IsClass {
			if _, ok := lits[t.Lit]; !ok {
				lits[t.Lit] = len(lits)
			}
		}
	}
	d := &dfa{a: a, lits: lits, nsym: len(lits) + 4}
	d.lit, d.litStart, d.litEnd = necessaryLiteral(p.toks)
	if d.byteSyms = d.nsym <= 1<<8; d.byteSyms {
		for c := range d.ascii {
			d.ascii[c] = uint8(len(lits) + int(gentree.ClassOf(rune(c))))
		}
		for r, id := range lits {
			if r < utf8.RuneSelf {
				d.ascii[r] = uint8(id)
			}
		}
	}
	t := newDFATable(8, d.nsym)
	start := a.start()
	d.sets = []stateSet{start}
	d.bySet = map[string]int{start.key(): 0}
	t.accept[0] = a.accepts(start)
	d.tab.Store(t)
	return d
}

// symbol maps an input rune to its symbol id.
func (d *dfa) symbol(r rune) int {
	if id, ok := d.lits[r]; ok {
		return id
	}
	return len(d.lits) + int(gentree.ClassOf(r))
}

// mayMatch is the necessary-literal prefilter: false only for values that
// cannot match. A value that passes is still decided by the automaton.
func (d *dfa) mayMatch(s string) bool {
	switch {
	case d.lit == "":
		return true
	case d.litStart && d.litEnd:
		return s == d.lit
	case d.litStart:
		return strings.HasPrefix(s, d.lit)
	case d.litEnd:
		return strings.HasSuffix(s, d.lit)
	default:
		return strings.Contains(s, d.lit)
	}
}

// matches runs the DFA over s. It is safe for concurrent use and takes no
// lock while every transition it needs is already built.
func (d *dfa) matches(s string) bool {
	t := d.tab.Load()
	cur := 0
	for i := 0; i < len(s); {
		var sym int
		var r rune
		if c := s[i]; c < utf8.RuneSelf && d.byteSyms {
			sym, r = int(d.ascii[c]), rune(c)
			i++
		} else {
			// Same decoding as ranging over s, which is what the NFA walk
			// does: an invalid byte is U+FFFD and consumes one byte.
			var size int
			r, size = utf8.DecodeRuneInString(s[i:])
			sym = d.symbol(r)
			i += size
		}
		nxt := t.next[cur*d.nsym+sym].Load()
		if nxt == 0 {
			nxt, t = d.build(cur, sym, r)
		}
		if nxt < 0 {
			return false
		}
		cur = int(nxt) - 1
	}
	return t.accept[cur]
}

// build computes the successor of state cur on symbol sym (witnessed by
// rune r), publishes it and returns the encoded id together with the
// table generation that holds it, which the caller continues on.
func (d *dfa) build(cur, sym int, r rune) (int32, *dfaTable) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tab.Load()
	if nxt := t.next[cur*d.nsym+sym].Load(); nxt != 0 {
		return nxt, t // another matcher built it first
	}
	set := d.a.step(d.sets[cur], r)
	if set.empty() {
		t.next[cur*d.nsym+sym].Store(-1)
		return -1, t
	}
	k := set.key()
	id, known := d.bySet[k]
	if !known { // a state no table generation has a row for yet
		id = len(d.sets)
		d.sets = append(d.sets, set)
		d.bySet[k] = id
		if id == len(t.accept) {
			grown := newDFATable(2*len(t.accept), d.nsym)
			for i := range t.next {
				grown.next[i].Store(t.next[i].Load())
			}
			copy(grown.accept, t.accept)
			t = grown
			d.tab.Store(t)
		}
		t.accept[id] = d.a.accepts(set)
	}
	t.next[cur*d.nsym+sym].Store(int32(id + 1))
	return int32(id + 1), t
}

var dfaCache sync.Map // pattern key -> *dfa (meta-less patterns only)

// compiledDFA returns the cached lazy DFA for p. Patterns built through
// the package constructors memoize the DFA in their meta block; the
// keyed map is only the fallback for zero-value patterns.
func compiledDFA(p Pattern) *dfa {
	if p.meta != nil {
		p.meta.dfaOnce.Do(func() { p.meta.dfa = newDFA(p, compiled(p)) })
		return p.meta.dfa
	}
	k := p.Key()
	if v, ok := dfaCache.Load(k); ok {
		return v.(*dfa)
	}
	d := newDFA(p, compiled(p))
	actual, _ := dfaCache.LoadOrStore(k, d)
	return actual.(*dfa)
}

// Matcher is Matches through the lazily determinized automaton, for a
// loop that matches one pattern against many values (detection scans,
// coverage, the engine's per-ID memo): it amortizes the subset
// construction once per (state, symbol) instead of per character, and
// resolves the pattern's MinLen and its automaton once instead of per
// value. The automaton is looked up on the first value long enough to
// match, so a loop whose values are all too short builds none. A Matcher
// is one loop's: it is not safe for concurrent use, but any number of
// Matchers of one pattern are.
type Matcher struct {
	p      Pattern
	minLen int
	d      *dfa
}

// Matcher returns a Matcher of p.
func (p Pattern) Matcher() Matcher { return Matcher{p: p, minLen: p.MinLen()} }

// Match reports whether s matches the pattern: exactly p.Matches(s).
func (m *Matcher) Match(s string) bool {
	if len(s) < m.minLen {
		return false
	}
	if m.d == nil {
		m.d = compiledDFA(m.p)
	}
	return m.d.mayMatch(s) && m.d.matches(s)
}
