package tokenize

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The rune-slice definitions the substring implementations must agree
// with, text for text and position for position — on multi-byte runes and
// on invalid UTF-8 alike (where []rune conversion rewrites each bad byte
// to U+FFFD and a plain substring would not).

func refTokenize(s, delims string) []Token {
	var out []Token
	pos := 0
	i := 0
	rs := []rune(s)
	for i < len(rs) {
		for i < len(rs) && strings.ContainsRune(delims, rs[i]) {
			i++
		}
		if i >= len(rs) {
			break
		}
		start := i
		for i < len(rs) && !strings.ContainsRune(delims, rs[i]) {
			i++
		}
		tok := string(rs[start:i])
		if i < len(rs) && rs[i] == ',' && strings.ContainsRune(delims, ',') {
			tok += ","
			i++
		}
		out = append(out, Token{Text: tok, Pos: pos})
		pos++
	}
	return out
}

func refNGrams(s string, n int) []Token {
	rs := []rune(s)
	if len(rs) == 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	if len(rs) <= n {
		return []Token{{Text: s, Pos: 0}}
	}
	var out []Token
	for i := 0; i+n <= len(rs); i++ {
		out = append(out, Token{Text: string(rs[i : i+n]), Pos: i})
	}
	return out
}

func refPrefixes(s string, max int) []Token {
	rs := []rune(s)
	if max > len(rs) {
		max = len(rs)
	}
	var out []Token
	for k := 1; k <= max; k++ {
		out = append(out, Token{Text: string(rs[:k]), Pos: 0})
	}
	return out
}

func TestDecompositionsMatchRuneSliceDefinitions(t *testing.T) {
	values := []string{
		"", " ", ",", ",,", "a,", "a,,b", ", a", "Holloway, Donald E.", "aa aa",
		"héllo wörld", "日本語のテキスト", "ab", "abc", "abcd", "F-9",
		"\xff", "\xffab\xfe", "a\xc3", "é\xffé, x", "8505467600",
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "1", " ", ",", "\t", "/", "é", "日", "\xff", "\xc3", "-"}
	for i := 0; i < 400; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		values = append(values, b.String())
	}
	same := func(got, want []Token) bool {
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	for _, v := range values {
		if got, want := Tokenize(v), refTokenize(v, DefaultDelims); !same(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", v, got, want)
		}
		for _, delims := range fuzzDelims {
			if got, want := AppendTokens(nil, v, delims), refTokenize(v, delims); !same(got, want) {
				t.Errorf("AppendTokens(nil, %q, %q) = %q, want %q", v, delims, got, want)
			}
			if got, want := CountTokens(v, delims), len(refTokenize(v, delims)); got != want {
				t.Errorf("CountTokens(%q, %q) = %d, want %d", v, delims, got, want)
			}
		}
		for n := 0; n <= 4; n++ {
			if got, want := AppendNGrams(nil, v, n), refNGrams(v, n); !same(got, want) {
				t.Errorf("AppendNGrams(nil, %q, %d) = %q, want %q", v, n, got, want)
			}
			if got, want := AppendPrefixes(nil, v, n), refPrefixes(v, n); !same(got, want) {
				t.Errorf("AppendPrefixes(nil, %q, %d) = %q, want %q", v, n, got, want)
			}
		}
	}
}

// The Append forms reuse the caller's buffer and allocate nothing for
// valid UTF-8: every text is a substring of the value.
func TestAppendFormsDoNotAllocate(t *testing.T) {
	buf := make([]Token, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendTokens(buf[:0], "Holloway, Donald E.", DefaultDelims)
		buf = AppendNGrams(buf[:0], "8505467600", 3)
		buf = AppendPrefixes(buf[:0], "héllo wörld", 8)
	})
	if allocs != 0 {
		t.Errorf("Append forms allocated %.0f times per run", allocs)
	}
}

// fuzzDelims are the delimiter sets the token loops are checked under:
// the default, ASCII sets with and without the comma, and sets holding a
// non-ASCII rune, which is looked up in the set rather than the table —
// U+FFFD among them, which every invalid byte of a value decodes to.
var fuzzDelims = []string{DefaultDelims, " \t;|/", "-a", "é ,", "日\uFFFD", ",\u00a0"}

// FuzzTokensAgainstReference feeds arbitrary bytes, invalid UTF-8
// included, through AppendTokens and CountTokens under each delimiter
// set of fuzzDelims: the cut must be refTokenize's, text for text and
// position for position, and the count its length. The committed corpus
// (testdata/fuzz/FuzzTokensAgainstReference) holds values that cross
// between the byte table and the rune path.
func FuzzTokensAgainstReference(f *testing.F) {
	for _, v := range []string{"Holloway, Donald E.", "a,,b", "héllo\twörld", "\xff,\xfe a", "日本 語", "a\u00a0b"} {
		f.Add(v, uint8(0))
	}
	f.Fuzz(func(t *testing.T, v string, set uint8) {
		delims := fuzzDelims[int(set)%len(fuzzDelims)]
		got, want := AppendTokens(nil, v, delims), refTokenize(v, delims)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendTokens(%q, %q) = %q, want %q", v, delims, got, want)
		}
		if n := CountTokens(v, delims); n != len(want) {
			t.Fatalf("CountTokens(%q, %q) = %d, want %d", v, delims, n, len(want))
		}
	})
}
