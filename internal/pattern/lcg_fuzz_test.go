package pattern

import (
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/gentree"
)

// lcgAllStepwise is LCGAll as it folded before fixed-length steps could
// return the accumulator: every step rebuilds the merged pattern rune by
// rune and compacts it. FuzzLCGAll holds LCGAll to it.
func lcgAllStepwise(values []string) Pattern {
	if len(values) == 0 {
		return Pattern{}
	}
	acc := Literal(values[0])
	for _, v := range values[1:] {
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
			acc = compactSameClassRuns(mk(toks))
			continue
		}
		acc = mergeOpen(openOf(acc), classRuns(v, true))
	}
	return acc
}

// FuzzLCGAll cuts a list of values out of the input (one per line) and
// checks that LCGAll folds it to the stepwise fold's pattern, token for
// token. The seeds mix lengths (so the fold switches between fixed-length
// and open steps, and back), repeat values (so the accumulator covers
// most steps), hold multi-byte runes and invalid UTF-8, and end on a
// value that a class or a length does not cover.
func FuzzLCGAll(f *testing.F) {
	for _, s := range []string{
		"5467600\n1234567\n5467600\n0000000",
		"Mary\nJohn\nSusan\nDonald",
		"ab\nAB\nab\n12\n-\nab1",
		"AB-12\nCD-34\nAB-12\nA\nAB-12\nXY-99",
		"héllo\nhéllo\nhällo\n日本語\n日本語",
		"\xffab\n\xfeab\nxab\n\xff\xfe\n�ab",
		"a\n\nb\n\n",
		"7\n8\n9\n77\n7\n8",
		"12\n34\nab",
		"ab\nAB\n-",
		"abc\nab",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		values := strings.Split(s, "\n")
		if len(values) > 64 || len(s) > 1024 {
			t.Skip("a short list")
		}
		got, want := LCGAll(values), lcgAllStepwise(values)
		if !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("LCGAll(%q) = %q, the stepwise fold gives %q", values, got.String(), want.String())
		}
	})
}
