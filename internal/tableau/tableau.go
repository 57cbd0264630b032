// Package tableau implements the pattern tableau Tp of a PFD: an ordered
// list of pattern tuples, each pairing a constrained LHS pattern with
// either an RHS constant or the wildcard ⊥, plus coverage accounting and
// tableau minimization.
package tableau

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/anmat/anmat/internal/pattern"
)

// Wildcard is the unnamed variable ⊥ of the paper: an RHS that requires
// agreement between matching tuples rather than a specific constant.
const Wildcard = "⊥"

// Row is one pattern tuple tp of the tableau.
type Row struct {
	// LHS is the constrained pattern on the determining attribute(s).
	LHS pattern.Constrained
	// RHS is a constant value, or Wildcard for a variable row.
	RHS string
	// Support is the number of tuples matching the LHS pattern when the
	// row was mined (0 when hand-written).
	Support int
	// Position is the token/character position the rule anchors at,
	// displayed by the Figure 4 view.
	Position int
}

// Variable reports whether the row's RHS is the wildcard.
func (r Row) Variable() bool { return r.RHS == Wildcard }

// String renders the row like the paper's tableau listings,
// e.g. `850\D{7} → FL` or `\LU\LL*\ \A* → ⊥`.
func (r Row) String() string {
	return fmt.Sprintf("%s → %s", r.LHS.String(), r.RHS)
}

// Tableau is the ordered list of rows.
type Tableau struct {
	rows []Row
}

// New builds a tableau from rows.
func New(rows ...Row) *Tableau {
	t := &Tableau{rows: make([]Row, len(rows))}
	copy(t.rows, rows)
	return t
}

// Add appends a row.
func (t *Tableau) Add(r Row) { t.rows = append(t.rows, r) }

// Rows returns a copy of the rows.
func (t *Tableau) Rows() []Row {
	cp := make([]Row, len(t.rows))
	copy(cp, t.rows)
	return cp
}

// Len returns the number of rows.
func (t *Tableau) Len() int { return len(t.rows) }

// Empty reports whether the tableau has no rows.
func (t *Tableau) Empty() bool { return len(t.rows) == 0 }

// ConstantRows returns the rows whose RHS is a constant.
func (t *Tableau) ConstantRows() []Row {
	var out []Row
	for _, r := range t.rows {
		if !r.Variable() {
			out = append(out, r)
		}
	}
	return out
}

// String renders the tableau one row per line.
func (t *Tableau) String() string {
	var b strings.Builder
	for i, r := range t.rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// CoverageCounted returns the fraction of a column's records whose value
// matches at least one row's LHS pattern — the "minimum coverage"
// denominator of Section 4: records containing at least one of the
// patterns that appear in the tuples of the tableau, over total records.
// The column is dictionary-coded: values are the distinct cell values and
// counts[i] the number of records holding values[i] (nil counts mean one
// record each, zero that the value is listed but not in the column), so
// each distinct value is matched once however often it occurs.
func (t *Tableau) CoverageCounted(values []string, counts []int) float64 {
	if len(values) == 0 || len(t.rows) == 0 {
		return 0
	}
	embedded := make([]pattern.Matcher, len(t.rows))
	for i, r := range t.rows {
		embedded[i] = r.LHS.Embedded().Matcher()
	}
	covered, total := 0, 0
	for i, v := range values {
		n := 1
		if counts != nil {
			n = counts[i]
		}
		if n == 0 {
			continue
		}
		total += n
		for j := range embedded {
			if embedded[j].Match(v) {
				covered += n
				break
			}
		}
	}
	return float64(covered) / float64(total)
}

// Sort orders rows by descending support, then LHS string, for stable
// display and serialization.
func (t *Tableau) Sort() {
	sort.SliceStable(t.rows, func(i, j int) bool {
		if t.rows[i].Support != t.rows[j].Support {
			return t.rows[i].Support > t.rows[j].Support
		}
		return t.rows[i].LHS.String() < t.rows[j].LHS.String()
	})
}

// Minimize removes rows subsumed by other rows: a constant row (P → c) is
// subsumed by (P' → c) when P ⊆ P' (same constant, more general pattern);
// a variable row is subsumed by a variable row whose LHS it is a
// restriction of. Minimization shrinks the tableau without changing which
// violations detection reports for constant rows; for variable rows the
// subsuming row detects a superset.
//
// Rows are visited in tableau order and a row is dropped when a row still
// kept at that moment subsumes it and is not subsumed back (rows of equal
// language all stay). Only rows with the same RHS can subsume one another,
// so the rows are grouped by RHS and each group is minimized on its own.
// A row's embedded pattern is the one its LHS memoizes, compiled once
// however many pairs the row takes part in.
func (t *Tableau) Minimize() {
	rows := t.rows
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(rows[a].RHS, rows[b].RHS) })
	keep := make([]bool, len(rows))
	for i := range keep {
		keep[i] = true
	}
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		for hi = lo + 1; hi < len(order) && rows[order[hi]].RHS == rows[order[lo]].RHS; hi++ {
		}
		minimizeGroup(rows, order[lo:hi], keep)
	}
	// Exact duplicates: keep first occurrence.
	seen := map[string]bool{}
	var dedup []Row
	for i, r := range rows {
		if !keep[i] {
			continue
		}
		k := r.String()
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, r)
		}
	}
	t.rows = dedup
}

// minimizeGroup clears keep for the subsumed rows among rows[group[…]], a
// run of same-RHS rows in tableau order.
func minimizeGroup(rows []Row, group []int, keep []bool) {
	for _, i := range group {
		for _, j := range group {
			if i == j || !keep[j] {
				continue
			}
			if subsumes(rows[j], rows[i]) && !subsumes(rows[i], rows[j]) {
				keep[i] = false
				break
			}
		}
	}
}

// subsumes reports whether row a subsumes row b (a is at least as general
// and has the same effect).
func subsumes(a, b Row) bool {
	if a.Variable() != b.Variable() {
		return false
	}
	if a.Variable() {
		return b.LHS.RestrictionOf(a.LHS)
	}
	if a.RHS != b.RHS {
		return false
	}
	return a.LHS.Embedded().Contains(b.LHS.Embedded())
}
