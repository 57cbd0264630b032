package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Segment is one piece of a constrained pattern: a sub-pattern that is
// either constrained (its matched substring participates in the tuple
// agreement check of a variable PFD) or free.
type Segment struct {
	Pat         Pattern
	Constrained bool
}

// Constrained is the constrained pattern Q of the paper: a concatenation
// of segments of which at least one is constrained. The embedded pattern
// Q̄ is the concatenation of the segment patterns with annotations dropped.
//
// Values built through the package constructors memoize Q̄, so every caller
// asking a tableau row for its embedded pattern — minimization, coverage,
// detection — shares one compiled automaton instead of compiling its own.
type Constrained struct {
	segs []Segment
	emb  *embedded // shared by all copies; nil for the zero value
}

type embedded struct {
	once sync.Once
	pat  Pattern
}

func mkConstrained(segs []Segment) Constrained {
	return Constrained{segs: segs, emb: &embedded{}}
}

// NewConstrained builds a constrained pattern from segments. It returns an
// error when no segment is constrained, because such a value would degrade
// to a plain pattern and the paper requires at least one annotation.
func NewConstrained(segs ...Segment) (Constrained, error) {
	any := false
	for _, s := range segs {
		if s.Constrained {
			any = true
			break
		}
	}
	if !any {
		return Constrained{}, fmt.Errorf("constrained pattern needs at least one constrained segment")
	}
	cp := make([]Segment, len(segs))
	copy(cp, segs)
	return mkConstrained(cp), nil
}

// Uncompiled returns q without the automata that matching and extraction
// compiled for it, which every copy of q shares: a holder that outlives
// the matching keeps the definition alone.
func (q Constrained) Uncompiled() Constrained {
	segs := make([]Segment, len(q.segs))
	for i, s := range q.segs {
		segs[i] = Segment{Pat: mk(s.Pat.toks), Constrained: s.Constrained}
	}
	return mkConstrained(segs)
}

// ParseConstrained parses the syntax used throughout this repository for
// constrained patterns: segments wrapped in angle brackets are
// constrained, everything else is free. Example (λ4 of the paper):
//
//	<\LU\LL*\ >\A*
//
// marks the first name plus trailing space as the constrained segment.
func ParseConstrained(s string) (Constrained, error) {
	var segs []Segment
	rest := s
	for len(rest) > 0 {
		if strings.HasPrefix(rest, "<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return Constrained{}, fmt.Errorf("constrained pattern %q: unterminated '<'", s)
			}
			p, err := Parse(rest[1:end])
			if err != nil {
				return Constrained{}, err
			}
			segs = append(segs, Segment{Pat: p, Constrained: true})
			rest = rest[end+1:]
			continue
		}
		end := strings.IndexByte(rest, '<')
		if end < 0 {
			end = len(rest)
		}
		p, err := Parse(rest[:end])
		if err != nil {
			return Constrained{}, err
		}
		segs = append(segs, Segment{Pat: p})
		rest = rest[end:]
	}
	return NewConstrained(segs...)
}

// MustParseConstrained is ParseConstrained that panics on error.
func MustParseConstrained(s string) Constrained {
	q, err := ParseConstrained(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Embedded returns the embedded pattern Q̄: the concatenation of all
// segment patterns with constraints dropped.
func (q Constrained) Embedded() Pattern {
	if q.emb == nil {
		return q.embed()
	}
	q.emb.once.Do(func() { q.emb.pat = q.embed() })
	return q.emb.pat
}

func (q Constrained) embed() Pattern {
	var p Pattern
	for _, s := range q.segs {
		p = p.Concat(s.Pat)
	}
	return p
}

// String renders the constrained pattern in the angle-bracket syntax.
func (q Constrained) String() string {
	var b strings.Builder
	for _, s := range q.segs {
		if s.Constrained {
			b.WriteByte('<')
			b.WriteString(s.Pat.String())
			b.WriteByte('>')
		} else {
			b.WriteString(s.Pat.String())
		}
	}
	return b.String()
}

// Key returns a map key identifying the constrained pattern.
func (q Constrained) Key() string { return q.String() }

// Extract computes s(Q): the set of constrained-key strings obtainable by
// matching s against the segment sequence. The result is sorted and
// de-duplicated; it is empty iff s does not match Q̄.
//
// Key encoding: with exactly one constrained segment the key IS the
// matched substring (injective trivially, and zero-copy — it aliases s).
// With two or more constrained segments each part is length-prefixed
// ("<decimal len>:<part>" concatenated), so a part containing any
// would-be separator byte cannot alias a different split — the old
// unit-separator join collapsed e.g. ("x\x1fy","z") and ("x","y\x1fz")
// into one key. All keys of one pattern share an arity, so the two
// encodings never mix within a pattern's key space.
func (q Constrained) Extract(s string) []string {
	return q.AppendExtract(nil, s)
}

// extScratch is the reusable state of one AppendExtract call. Buffers are
// pooled so the steady-state extraction of a cell allocates nothing.
type extScratch struct {
	lens  [][]int  // per-depth prefix-length buffers
	parts []string // stack of constrained-part substrings
	keys  []string // keys found so far this call
	buf   []byte   // length-prefixed key assembly
	fail  []bool   // (segment, offset) failure memo, width len(s)+1
}

var extPool = sync.Pool{New: func() any { return new(extScratch) }}

// AppendExtract is Extract appending into dst; the keys appended by one
// call are sorted and de-duplicated among themselves.
func (q Constrained) AppendExtract(dst []string, s string) []string {
	segs := q.segs
	if len(segs) == 0 {
		return dst
	}
	minLen := 0
	for _, sg := range segs {
		minLen += sg.Pat.MinLen()
	}
	if len(s) < minLen {
		return dst
	}
	sc := extPool.Get().(*extScratch)
	for len(sc.lens) < len(segs) {
		sc.lens = append(sc.lens, nil)
	}
	failW := len(s) + 1
	if need := len(segs) * failW; cap(sc.fail) < need {
		sc.fail = make([]bool, need)
	} else {
		sc.fail = sc.fail[:need]
		clear(sc.fail)
	}
	sc.parts = sc.parts[:0]
	sc.keys = sc.keys[:0]

	var rec func(i, off int)
	rec = func(i, off int) {
		if i == len(segs) {
			if off == len(s) {
				sc.keys = append(sc.keys, renderKey(sc))
			}
			return
		}
		if sc.fail[i*failW+off] {
			return
		}
		before := len(sc.keys)
		sc.lens[i] = segs[i].Pat.AppendMatchPrefixLengths(sc.lens[i][:0], s[off:])
		lens := sc.lens[i]
		for _, l := range lens {
			if segs[i].Constrained {
				sc.parts = append(sc.parts, s[off:off+l])
				rec(i+1, off+l)
				sc.parts = sc.parts[:len(sc.parts)-1]
			} else {
				rec(i+1, off+l)
			}
		}
		if len(sc.keys) == before {
			// No completion from (i, off); memoize only when the key so
			// far cannot influence the failure, which is always true
			// because segment matching depends only on (i, off).
			sc.fail[i*failW+off] = true
		}
	}
	rec(0, 0)

	switch len(sc.keys) {
	case 0:
	case 1:
		dst = append(dst, sc.keys[0])
	default:
		sort.Strings(sc.keys)
		prev := ""
		for i, k := range sc.keys {
			if i == 0 || k != prev {
				dst = append(dst, k)
			}
			prev = k
		}
	}
	extPool.Put(sc)
	return dst
}

// renderKey builds the key for the current parts stack. A single part is
// returned as-is (a substring of the input); multiple parts are
// length-prefixed so distinct splits cannot collide.
func renderKey(sc *extScratch) string {
	if len(sc.parts) == 1 {
		return sc.parts[0]
	}
	b := sc.buf[:0]
	for _, p := range sc.parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	sc.buf = b
	return string(b)
}

// EquivalentUnder reports s ≡Q s': both strings match the embedded pattern
// and their extraction sets intersect.
func (q Constrained) EquivalentUnder(s, t string) bool {
	ks := q.Extract(s)
	if len(ks) == 0 {
		return false
	}
	kt := q.Extract(t)
	if len(kt) == 0 {
		return false
	}
	i, j := 0, 0
	for i < len(ks) && j < len(kt) {
		switch {
		case ks[i] == kt[j]:
			return true
		case ks[i] < kt[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// RestrictionOf reports a sound (not complete) syntactic test for Q ⊑ Q'
// (q is a restricted pattern of r): whenever two strings are ≡Q they are
// also ≡Q'. The test requires that r's segments embed into q's in order,
// with every constrained segment of r appearing as a constrained segment
// of q with an equal pattern, and q's extra segments only adding further
// constraints or refining free regions.
func (q Constrained) RestrictionOf(r Constrained) bool {
	// Special case: when q is a single fully constrained segment,
	// equivalence under q is plain string equality, which restricts any
	// pattern whose embedded language contains q's (s = s' trivially
	// implies agreement on every extraction of r).
	if len(q.segs) == 1 && q.segs[0].Constrained {
		return r.Embedded().Contains(q.Embedded())
	}
	// Every constrained segment of r must appear, in order, among q's
	// constrained segments with identical pattern; and the free "gaps" of
	// r must be at least as general as what q puts there.
	var rc, qc []Pattern
	for _, s := range r.segs {
		if s.Constrained {
			rc = append(rc, s.Pat)
		}
	}
	for _, s := range q.segs {
		if s.Constrained {
			qc = append(qc, s.Pat)
		}
	}
	// r's constrained sequence must be a prefix-order subsequence of q's.
	i := 0
	for _, rp := range rc {
		found := false
		for i < len(qc) {
			if qc[i].Equal(rp) {
				found = true
				i++
				break
			}
			i++
		}
		if !found {
			return false
		}
	}
	// Embedded-language check: everything q accepts, r must accept, so
	// that ≡Q pairs are in r's domain.
	return r.Embedded().Contains(q.Embedded())
}

// WholeValue wraps a plain pattern as a fully constrained pattern: the
// entire value is the key. It converts classical FD semantics into the
// constrained-pattern framework.
func WholeValue(p Pattern) Constrained {
	return mkConstrained([]Segment{{Pat: p, Constrained: true}})
}

// PrefixKey builds the common discovery shape: a constrained literal/fixed
// prefix followed by a free tail.
func PrefixKey(prefix, tail Pattern) Constrained {
	return mkConstrained([]Segment{
		{Pat: prefix, Constrained: true},
		{Pat: tail},
	})
}
