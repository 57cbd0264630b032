package pattern

import (
	"fmt"

	"github.com/anmat/anmat/internal/gentree"
)

// Parse parses a pattern written in the paper's syntax. Examples:
//
//	900\D{2}          three literal digits then exactly two digits
//	\LU\LL*\ \A*      upper, lowers, escaped space, anything
//	John\ \A*         literal "John", space, anything
//
// Escapes: `\A`, `\LU`, `\LL`, `\D`, `\S` are classes; `\ ` is a literal
// space; `\\`, `\{`, `\}`, `\+`, `\*` are literal characters. Quantifiers
// `{N}`, `+`, `*` bind to the preceding token. A bare space is also
// accepted as a literal space for convenience.
func Parse(s string) (Pattern, error) {
	var toks []Token
	rs := []rune(s)
	i := 0
	for i < len(rs) {
		var tok Token
		switch rs[i] {
		case '\\':
			t, n, err := parseEscape(rs[i:])
			if err != nil {
				return Pattern{}, fmt.Errorf("pattern %q at %d: %w", s, i, err)
			}
			tok = t
			i += n
		case '{', '}', '+', '*':
			return Pattern{}, fmt.Errorf("pattern %q at %d: quantifier %q without preceding token", s, i, rs[i])
		default:
			tok = LitTok(rs[i])
			i++
		}
		// Optional quantifier.
		if i < len(rs) {
			switch rs[i] {
			case '{':
				n, adv, err := parseCount(rs[i:])
				if err != nil {
					return Pattern{}, fmt.Errorf("pattern %q at %d: %w", s, i, err)
				}
				tok = tok.WithCount(n)
				i += adv
			case '+':
				tok = tok.WithQuant(Plus)
				i++
			case '*':
				tok = tok.WithQuant(Star)
				i++
			}
		}
		toks = append(toks, tok)
	}
	return mk(toks), nil
}

// MustParse is Parse that panics on error; intended for constants in tests
// and examples.
func MustParse(s string) Pattern {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// parseEscape parses a token starting with a backslash and returns the
// token and the number of runes consumed.
func parseEscape(rs []rune) (Token, int, error) {
	if len(rs) < 2 {
		return Token{}, 0, fmt.Errorf("dangling backslash")
	}
	// Two-letter class escapes first.
	if len(rs) >= 3 && rs[1] == 'L' {
		switch rs[2] {
		case 'U':
			return ClassTok(gentree.Upper), 3, nil
		case 'L':
			return ClassTok(gentree.Lower), 3, nil
		}
		return Token{}, 0, fmt.Errorf(`unknown class \L%c`, rs[2])
	}
	switch rs[1] {
	case 'A':
		return ClassTok(gentree.All), 2, nil
	case 'D':
		return ClassTok(gentree.Digit), 2, nil
	case 'S':
		return ClassTok(gentree.Symbol), 2, nil
	case 'L':
		return Token{}, 0, fmt.Errorf(`truncated class escape \L`)
	case '\\', '{', '}', '+', '*', ' ':
		return LitTok(rs[1]), 2, nil
	default:
		// Any other escaped character is taken literally.
		return LitTok(rs[1]), 2, nil
	}
}

// parseCount parses a {N} quantifier and returns N and runes consumed.
func parseCount(rs []rune) (int, int, error) {
	if rs[0] != '{' {
		return 0, 0, fmt.Errorf("expected '{'")
	}
	j := 1
	n := 0
	for j < len(rs) && rs[j] >= '0' && rs[j] <= '9' {
		n = n*10 + int(rs[j]-'0')
		j++
	}
	if j == 1 {
		return 0, 0, fmt.Errorf("empty repetition count")
	}
	if j >= len(rs) || rs[j] != '}' {
		return 0, 0, fmt.Errorf("unterminated repetition count")
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("zero repetition count")
	}
	if n > 1<<16 {
		return 0, 0, fmt.Errorf("repetition count %d too large", n)
	}
	return n, j + 1, nil
}
