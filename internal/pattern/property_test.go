package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomValue produces cell-like strings over the shapes ANMAT meets:
// codes, names, zips, phones, mixed ids.
func randomValue(rng *rand.Rand) string {
	const (
		uppers = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
		lowers = "abcdefghijklmnopqrstuvwxyz"
		digits = "0123456789"
		syms   = " -.,/_"
	)
	n := rng.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			b.WriteByte(uppers[rng.Intn(len(uppers))])
		case 1:
			b.WriteByte(lowers[rng.Intn(len(lowers))])
		case 2:
			b.WriteByte(digits[rng.Intn(len(digits))])
		default:
			b.WriteByte(syms[rng.Intn(len(syms))])
		}
	}
	return b.String()
}

// Property: every string matches its generalization at every level (the
// generalization invariant).
func TestPropGeneralizeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		s := randomValue(rng)
		for lvl := LevelLiteral; lvl <= LevelAny; lvl++ {
			p := Generalize(s, lvl)
			if !p.Matches(s) {
				t.Fatalf("Generalize(%q, %d) = %s does not match its input", s, lvl, p)
			}
		}
	}
}

// Property: each generalization level is contained by the next coarser
// one, and everything is contained by \A*.
func TestPropGeneralizationChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	anyp := AnyString()
	for i := 0; i < 60; i++ {
		s := randomValue(rng)
		lit := Generalize(s, LevelLiteral)
		cls := Generalize(s, LevelClass)
		run := Generalize(s, LevelClassRun)
		open := Generalize(s, LevelClassRunOpen)
		chain := []Pattern{lit, cls, run, open, anyp}
		for j := 0; j+1 < len(chain); j++ {
			if !chain[j+1].Contains(chain[j]) {
				t.Fatalf("level %d of %q (%s) not contained in level %d (%s)",
					j, s, chain[j], j+1, chain[j+1])
			}
		}
	}
}

// Property: containment is sound w.r.t. matching — if P ⊆ P' and s 7→ P
// then s 7→ P'.
func TestPropContainmentSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 80; i++ {
		s := randomValue(rng)
		small := Generalize(s, LevelClassRun)
		big := Generalize(s, LevelClassRunOpen)
		if !big.Contains(small) {
			// Still legitimate (e.g. empty string edge); only test the
			// implication when containment holds.
			continue
		}
		t2 := randomValue(rng)
		if small.Matches(t2) && !big.Matches(t2) {
			t.Fatalf("containment unsound: %q matches %s but not %s", t2, small, big)
		}
	}
}

// Property: containment is reflexive and transitive on generated patterns.
func TestPropContainmentPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pats []Pattern
	for i := 0; i < 12; i++ {
		s := randomValue(rng)
		pats = append(pats,
			Generalize(s, LevelClassRun),
			Generalize(s, LevelClassRunOpen))
	}
	for _, p := range pats {
		if !p.Contains(p) {
			t.Fatalf("not reflexive: %s", p)
		}
	}
	for _, a := range pats {
		for _, b := range pats {
			if !b.Contains(a) {
				continue
			}
			for _, c := range pats {
				if c.Contains(b) && !c.Contains(a) {
					t.Fatalf("not transitive: %s ⊆ %s ⊆ %s", a, b, c)
				}
			}
		}
	}
}

// Property: the LCG of two strings matches both and is contained by \A*.
func TestPropLCGMatchesBoth(t *testing.T) {
	f := func(a, b string) bool {
		// Constrain to printable ASCII to keep the test meaningful.
		a, b = asciiOnly(a), asciiOnly(b)
		p := LCGAll([]string{a, b})
		return p.Matches(a) && p.Matches(b) && AnyString().Contains(p)
	}
	cfg := &quick.Config{MaxCount: 120}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func asciiOnly(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 32 && r < 127 {
			b.WriteRune(r)
		}
	}
	if b.Len() > 16 {
		return b.String()[:16]
	}
	return b.String()
}

// Property: ≡Q is reflexive and symmetric on matching strings.
func TestPropEquivalenceRelation(t *testing.T) {
	qs := []Constrained{
		MustParseConstrained(`<\D{3}>\D{2}`),
		MustParseConstrained(`<\LU\LL*\ >\A*`),
		MustParseConstrained(`<\LU>-\D-\D{3}`),
	}
	gens := []func(*rand.Rand) string{
		func(r *rand.Rand) string { return digitsN(r, 5) },
		func(r *rand.Rand) string {
			return string(rune('A'+r.Intn(26))) + strings.Repeat("a", 1+r.Intn(4)) + " " + string(rune('A'+r.Intn(26))) + "x"
		},
		func(r *rand.Rand) string {
			return string(rune('A'+r.Intn(26))) + "-" + digitsN(r, 1) + "-" + digitsN(r, 3)
		},
	}
	rng := rand.New(rand.NewSource(5))
	for k, q := range qs {
		for i := 0; i < 60; i++ {
			s := gens[k](rng)
			u := gens[k](rng)
			if !q.EquivalentUnder(s, s) {
				t.Fatalf("≡ not reflexive: %q under %s", s, q)
			}
			if q.EquivalentUnder(s, u) != q.EquivalentUnder(u, s) {
				t.Fatalf("≡ not symmetric: %q, %q under %s", s, u, q)
			}
		}
	}
}

func digitsN(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('0' + r.Intn(10)))
	}
	return b.String()
}

// Property: Extract keys are consistent with equivalence — two strings
// are equivalent iff their key sets intersect.
func TestPropExtractConsistency(t *testing.T) {
	q := MustParseConstrained(`<\D{2}>\D*`)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		a := digitsN(rng, 2+rng.Intn(4))
		b := digitsN(rng, 2+rng.Intn(4))
		ka, kb := q.Extract(a), q.Extract(b)
		inter := intersects(ka, kb)
		if got := q.EquivalentUnder(a, b); got != inter {
			t.Fatalf("EquivalentUnder(%q,%q)=%v but key intersection=%v (%v vs %v)",
				a, b, got, inter, ka, kb)
		}
		if inter != (a[:2] == b[:2]) {
			t.Fatalf("2-digit prefix semantics violated for %q, %q", a, b)
		}
	}
}

func intersects(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return true
		}
	}
	return false
}

// Property: parsing the String() of a random generalization is stable.
func TestPropParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randomValue(rng)
		for _, lvl := range []Level{LevelLiteral, LevelClassRun, LevelClassRunOpen} {
			p := Generalize(s, lvl)
			back, err := Parse(p.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", p.String(), err)
			}
			if !p.Equal(back) {
				t.Fatalf("round trip of %q level %d: %q != %q", s, lvl, p.String(), back.String())
			}
		}
	}
}
