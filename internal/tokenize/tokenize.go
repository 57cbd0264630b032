// Package tokenize provides the Tokenize and NGrams functions of the
// discovery algorithm (Figure 2, lines 6–7). Tokens are delimiter-separated
// pieces of a cell value with their token positions; n-grams are
// fixed-length character windows with their character positions. The
// position conventions follow Section 4 of the paper: token positions count
// tokens from 0; n-gram positions count characters from 0.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a piece of a cell value together with its position.
type Token struct {
	// Text is the token or n-gram content.
	Text string
	// Pos is the token index (Tokenize) or starting rune index (NGrams).
	Pos int
}

// DefaultDelims are the characters treated as token separators: spaces and
// common punctuation found in names, phone numbers, codes and addresses.
const DefaultDelims = " \t,;|/"

// Tokenize splits a cell value into tokens at DefaultDelims. Delimiters
// are dropped except for the comma, which is kept attached to the
// preceding token ("Holloway," in "Holloway, Donald E.") so that
// discovered name patterns can anchor on it the way Table 3 does.
func Tokenize(s string) []Token {
	return AppendTokens(nil, s, DefaultDelims)
}

// TokenizeDelims splits on the given delimiter set. Runs of delimiters
// count as one separator; leading/trailing delimiters produce no empty
// tokens. A comma in the delimiter set is retained as a suffix of the
// token it follows.
func TokenizeDelims(s, delims string) []Token {
	return AppendTokens(nil, s, delims)
}

// The Append forms below are the one implementation of each
// decomposition. They append to dst and return it, so a caller that
// decomposes many values reuses one buffer, and every Text is a substring
// of the value, so a decomposition allocates nothing. Substrings are cut
// at rune boundaries, which is only the same thing as the rune-slice
// definition ("string(runes[i:j])") when the value is valid UTF-8; an
// invalid value is first replaced by its sanitized copy (each bad byte
// becomes U+FFFD, as []rune conversion does), so the texts are exactly
// those of the rune-slice definition either way.
func sanitized(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// AppendTokens appends the tokens of s (see TokenizeDelims) to dst.
func AppendTokens(dst []Token, s, delims string) []Token {
	s = sanitized(s)
	keepComma := strings.ContainsRune(delims, ',')
	first := len(dst)
	start := -1 // byte offset of the token being read; -1 between tokens
	for i, r := range s {
		switch {
		case !strings.ContainsRune(delims, r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			end := i
			if keepComma && r == ',' {
				end++ // keep the comma attached to the token it follows
			}
			dst = append(dst, Token{Text: s[start:end], Pos: len(dst) - first})
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, Token{Text: s[start:], Pos: len(dst) - first})
	}
	return dst
}

// NGrams returns all n-grams of s with their starting rune positions. When
// the value is shorter than n, the whole value is returned as a single
// token at position 0 (a code like "F-9" still yields something to index).
func NGrams(s string, n int) []Token {
	return AppendNGrams(nil, s, n)
}

// AppendNGrams appends the n-grams of s (see NGrams) to dst.
func AppendNGrams(dst []Token, s string, n int) []Token {
	if s == "" {
		return dst
	}
	if n <= 0 {
		n = 1
	}
	whole := s
	s = sanitized(s)
	bounds := make([]int, 0, 64) // where each rune starts, then len(s)
	for i := range s {
		bounds = append(bounds, i)
	}
	bounds = append(bounds, len(s))
	if runes := len(bounds) - 1; runes <= n {
		return append(dst, Token{Text: whole, Pos: 0})
	}
	for i := 0; i+n < len(bounds); i++ {
		dst = append(dst, Token{Text: s[bounds[i]:bounds[i+n]], Pos: i})
	}
	return dst
}

// Prefixes returns the k-rune prefixes of s for k = 1..max (capped at the
// value length). Discovery over code-like columns uses prefixes to mine
// rules anchored at position 0, e.g. the `900`, `850`, `607` prefixes of
// Table 3.
func Prefixes(s string, max int) []Token {
	return AppendPrefixes(nil, s, max)
}

// AppendPrefixes appends the prefixes of s (see Prefixes) to dst.
func AppendPrefixes(dst []Token, s string, max int) []Token {
	s = sanitized(s)
	k := 0
	for i := 0; i < len(s) && k < max; k++ {
		_, w := utf8.DecodeRuneInString(s[i:])
		i += w
		dst = append(dst, Token{Text: s[:i], Pos: 0})
	}
	return dst
}

// IsWordLike reports whether the token consists only of letters,
// apostrophes, periods and hyphens — the shape of a name token.
func IsWordLike(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && r != '\'' && r != '.' && r != '-' && r != ',' {
			return false
		}
	}
	return true
}

// IsNumeric reports whether the token consists only of digits.
func IsNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
