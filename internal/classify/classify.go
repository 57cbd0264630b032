// Package classify triages detected errors to speed up human validation
// (Section 4: "easy validation of the reported errors increases data
// cleaning tools' usability"). Given the observed value and the expected
// value of a violation, it labels the error as a case slip ("lL" for
// "IL"), a typo (small edit distance: "Chicag", "Chciago"), a truncation
// ("C" for "Chicago"), or a category swap (an entirely different valid
// value, as when a state is simply wrong).
package classify

import "strings"

// Kind is the error category.
type Kind uint8

const (
	// Identical means the two values are equal — not an error.
	Identical Kind = iota
	// CaseSlip means the values are equal ignoring letter case.
	CaseSlip
	// Truncation means the observed value is a strict prefix of the
	// expected value (or vice versa).
	Truncation
	// Typo means a small edit distance relative to length.
	Typo
	// Swap means an unrelated replacement value.
	Swap
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Identical:
		return "identical"
	case CaseSlip:
		return "case-slip"
	case Truncation:
		return "truncation"
	case Typo:
		return "typo"
	case Swap:
		return "swap"
	default:
		return "unknown"
	}
}

// Classify labels the relationship between an observed (dirty) value and
// the expected (clean) value.
func Classify(observed, expected string) Kind {
	if observed == expected {
		return Identical
	}
	if strings.EqualFold(observed, expected) {
		return CaseSlip
	}
	if observed != "" && expected != "" {
		if strings.HasPrefix(expected, observed) || strings.HasPrefix(observed, expected) {
			return Truncation
		}
	}
	d := Levenshtein(observed, expected)
	longer := len([]rune(observed))
	if l := len([]rune(expected)); l > longer {
		longer = l
	}
	// A typo alters a small fraction of the value; two edits on a long
	// value (transposition = 2 substitution-ish edits) still count. Very
	// short values (≤ 2 runes) that change at all are replacements, not
	// typos: "F" → "M" is a different category, not a slip.
	if longer >= 3 && (d == 1 || (d == 2 && longer >= 5)) {
		return Typo
	}
	return Swap
}

// Levenshtein computes the edit distance (insert/delete/substitute) over
// runes, using the two-row dynamic program.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Summary counts error kinds over (observed, expected) pairs — the
// per-dataset triage table shown in reports.
type Summary struct {
	Counts map[Kind]int
	Total  int
}

// Summarize classifies every pair.
func Summarize(pairs [][2]string) Summary {
	s := Summary{Counts: make(map[Kind]int)}
	for _, p := range pairs {
		s.Counts[Classify(p[0], p[1])]++
		s.Total++
	}
	return s
}
