// Package profile implements data profiling (line 1 of Figure 2 and the
// Figure 3 view): per-column statistics, column type inference, the
// candidate-dependency generator Candidates, and per-column
// pattern summaries of the form "pattern::position, frequency".
package profile

import (
	"fmt"
	"slices"
	"sort"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tokenize"
)

// ColType classifies a column for candidate pruning.
type ColType uint8

const (
	// Empty means every value is the empty string.
	Empty ColType = iota
	// Numeric means every non-empty value is a plain number (integer or
	// decimal, optional sign). Pure measurement columns cannot anchor
	// pattern rules, so the profiler prunes them (the paper: "we drop all
	// columns with pure numerical values").
	Numeric
	// Code means single-token values mixing classes (ids such as F-9-107,
	// zips, phone numbers). Discovery uses n-grams/prefixes here.
	Code
	// Text means multi-token values (names, addresses). Discovery uses
	// token mode here.
	Text
	// Category means a small set of short distinct values (state codes,
	// gender flags) — a natural RHS.
	Category
)

// String names the column type.
func (c ColType) String() string {
	switch c {
	case Empty:
		return "empty"
	case Numeric:
		return "numeric"
	case Code:
		return "code"
	case Text:
		return "text"
	case Category:
		return "category"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(c))
	}
}

// ColumnProfile holds the statistics of one column.
type ColumnProfile struct {
	Name      string
	Type      ColType
	Rows      int
	NonEmpty  int
	Distinct  int
	AvgTokens float64
	AvgLen    float64
	MaxLen    int
	// Signatures maps the class-run signature of values to its frequency.
	Signatures map[string]int
	// TopValues holds the most frequent values (up to 10), sorted by
	// descending frequency then value.
	TopValues []ValueCount
}

// ValueCount pairs a value with its occurrence count.
type ValueCount struct {
	Value string
	Count int
}

// categoryMaxDistinct is the distinct-count ceiling for Category columns.
const categoryMaxDistinct = 64

// ProfileCoded computes the profile of a table column: every per-value
// feature is computed once per distinct value and weighted by the rows
// that hold it. Values no row holds any more are not part of the column.
func ProfileCoded(name string, c *table.Interned) ColumnProfile {
	counts := c.Counts()
	p := ColumnProfile{Name: name, Rows: len(c.IDs), Signatures: make(map[string]int)}
	numeric := true
	allDigits := true
	leadingZero := false
	mixedShape := false
	singleToken := true
	minLen := -1
	totalTokens, totalLen := 0, 0
	var sig []byte
	var lastSig string
	var toks []tokenize.Token
	top := make([]ValueCount, 0, topValues+1)
	for id, v := range c.Dict.Values() {
		n := counts[id]
		if v == "" || n == 0 {
			continue
		}
		p.NonEmpty += n
		p.Distinct++
		top = insertTop(top, ValueCount{v, n})
		sig = pattern.AppendSignature(sig[:0], v)
		if string(sig) != lastSig { // a run of like-shaped values shares one key string
			lastSig = string(sig)
		}
		p.Signatures[lastSig] += n
		if !isPlainNumber(v) {
			numeric = false
		}
		if !tokenize.IsNumeric(v) {
			allDigits = false
		} else if v[0] == '0' && len(v) > 1 {
			leadingZero = true
		}
		if hasDigit(v) && hasNonDigit(v) {
			mixedShape = true
		}
		toks = tokenize.AppendTokens(toks[:0], v, tokenize.DefaultDelims)
		totalTokens += n * len(toks)
		if len(toks) > 1 {
			singleToken = false
		}
		rl := utf8.RuneCountInString(v)
		totalLen += n * rl
		if rl > p.MaxLen {
			p.MaxLen = rl
		}
		if minLen < 0 || rl < minLen {
			minLen = rl
		}
	}
	if p.NonEmpty > 0 {
		p.AvgTokens = float64(totalTokens) / float64(p.NonEmpty)
		p.AvgLen = float64(totalLen) / float64(p.NonEmpty)
	}
	// All-digit columns are codes, not quantities, when they have a fixed
	// width of ≥ 3 (phones, zips) or leading zeros: nobody measures in
	// "00042". The paper's pruning targets measurement columns only —
	// Table 3 itself mines phone numbers and ZIPs.
	digitCode := allDigits && p.NonEmpty > 0 && (leadingZero || (minLen == p.MaxLen && minLen >= 3))
	switch {
	case p.NonEmpty == 0:
		p.Type = Empty
	case digitCode:
		p.Type = Code
	case numeric:
		p.Type = Numeric
	case singleToken && mixedShape:
		// Values mixing digits with letters/symbols are identifiers
		// (F-9-107, CHEMBL153534), however few of them there are.
		p.Type = Code
	case singleToken && p.Distinct <= categoryMaxDistinct && p.AvgLen <= 24:
		p.Type = Category
	case singleToken:
		p.Type = Code
	default:
		p.Type = Text
	}
	p.TopValues = top
	return p
}

// topValues is how many of the most frequent values a profile lists.
const topValues = 10

// insertTop inserts vc into top, which holds the best topValues entries
// seen so far in order (descending count, then value), and drops the
// entry that falls off the end.
func insertTop(top []ValueCount, vc ValueCount) []ValueCount {
	i := len(top)
	for i > 0 && (vc.Count > top[i-1].Count || (vc.Count == top[i-1].Count && vc.Value < top[i-1].Value)) {
		i--
	}
	if i < topValues {
		top = slices.Insert(top, i, vc)
		top = top[:min(len(top), topValues)]
	}
	return top
}

func hasDigit(v string) bool {
	for _, r := range v {
		if r >= '0' && r <= '9' {
			return true
		}
	}
	return false
}

func hasNonDigit(v string) bool {
	for _, r := range v {
		if r < '0' || r > '9' {
			return true
		}
	}
	return false
}

// isPlainNumber reports whether v is an optionally signed integer or
// decimal numeral.
func isPlainNumber(v string) bool {
	digits, dot := 0, false
	for i, r := range v {
		switch {
		case i == 0 && (r == '+' || r == '-'):
		case r >= '0' && r <= '9':
			digits++
		case r == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return digits > 0
}

// TableProfile profiles every column of a table.
type TableProfile struct {
	Table   string
	Rows    int
	Columns []ColumnProfile
}

// ProfileTable computes the profile of every column.
func ProfileTable(t *table.Table) TableProfile {
	tp := TableProfile{Table: t.Name(), Rows: t.NumRows()}
	for i, name := range t.Columns() {
		tp.Columns = append(tp.Columns, ProfileCoded(name, t.InternedColumn(i)))
	}
	return tp
}

// Candidate is a candidate dependency A → B (column names).
type Candidate struct {
	LHS, RHS string
	// LHSType and RHSType carry the inferred types so discovery can pick
	// token vs n-gram mode per candidate.
	LHSType, RHSType ColType
}

// String renders the candidate as "A -> B".
func (c Candidate) String() string { return c.LHS + " -> " + c.RHS }

// Candidates is line 1 of Figure 2: all ordered column pairs of a table
// profile, pruned. Pruning rules:
//
//   - empty columns never participate;
//   - pure numeric columns are dropped entirely ("we drop all columns
//     with pure numerical values");
//   - the RHS must be a Category or Code column (a pattern rule predicts a
//     value or a code, not free text) unless it is Text with few distinct
//     values;
//   - trivially-keyed RHS (distinct == rows, i.e. a key column) is
//     dropped: nothing can functionally determine a unique id usefully.
func Candidates(tp TableProfile) []Candidate {
	usable := make([]ColumnProfile, 0, len(tp.Columns))
	for _, c := range tp.Columns {
		if c.Type == Empty || c.Type == Numeric {
			continue
		}
		usable = append(usable, c)
	}
	var out []Candidate
	for _, a := range usable {
		for _, b := range usable {
			if a.Name == b.Name {
				continue
			}
			if !usableRHS(b, tp.Rows) {
				continue
			}
			out = append(out, Candidate{
				LHS: a.Name, RHS: b.Name,
				LHSType: a.Type, RHSType: b.Type,
			})
		}
	}
	return out
}

func usableRHS(c ColumnProfile, rows int) bool {
	if c.NonEmpty == 0 {
		return false
	}
	// A column where every value is distinct is a key; no rule with
	// support > 1 can hold on it.
	if c.Distinct == c.NonEmpty && c.NonEmpty > 1 {
		return false
	}
	switch c.Type {
	case Category, Code:
		return true
	case Text:
		// Allow text RHS only when repetitive enough to support rules.
		return float64(c.Distinct) <= 0.5*float64(c.NonEmpty)
	default:
		return false
	}
}

// PatternSummary is one line of the Figure 3 view: a pattern with the
// position it anchors at and the number of values exhibiting it.
type PatternSummary struct {
	Pattern   string
	Position  int
	Frequency int
}

// ColumnPatterns lists the class-run signatures of a column as
// "pattern::position, frequency" entries, sorted by descending frequency.
// Signatures describe whole values, so the position is always 0; token-
// level summaries come from TokenPatterns. Both take a signature once per
// distinct value and weight it by the rows holding the value.
func ColumnPatterns(c *table.Interned) []PatternSummary {
	counts := make(map[patternAt]int)
	for id, n := range c.Counts() {
		if v := c.Dict.Value(uint32(id)); v != "" && n > 0 {
			counts[patternAt{sig: pattern.Signature(v)}] += n
		}
	}
	return sortSummaries(counts)
}

// TokenPatterns lists per-token signature summaries: for every token
// position, the class-run signatures of the tokens appearing there with
// their frequencies — the Figure 3 convention where "the position
// represents the token number at which the combination of tokens that
// form the pattern start" (first token = position 0).
func TokenPatterns(c *table.Interned) []PatternSummary {
	counts := make(map[patternAt]int)
	for id, n := range c.Counts() {
		if n == 0 {
			continue
		}
		for _, tok := range tokenize.Tokenize(c.Dict.Value(uint32(id))) {
			counts[patternAt{pattern.Signature(tok.Text), tok.Pos}] += n
		}
	}
	return sortSummaries(counts)
}

// patternAt is a signature at a token position.
type patternAt struct {
	sig string
	pos int
}

// sortSummaries orders the counted patterns by descending frequency, then
// position, then pattern.
func sortSummaries(counts map[patternAt]int) []PatternSummary {
	out := make([]PatternSummary, 0, len(counts))
	for k, n := range counts {
		out = append(out, PatternSummary{Pattern: k.sig, Position: k.pos, Frequency: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		if out[i].Position != out[j].Position {
			return out[i].Position < out[j].Position
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}
