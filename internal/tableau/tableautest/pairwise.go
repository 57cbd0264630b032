// Package tableautest holds the reference tests compare tableau.Minimize
// against. Nothing outside test files imports it.
package tableautest

import (
	"fmt"
	"strings"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/tableau"
)

// MinimizePairwise is tableau minimization as first written: every ordered
// pair of rows is asked twice whether one subsumes the other, each answer
// computed from scratch on freshly concatenated embedded patterns, with no
// grouping and no memo. A row is dropped when a row still kept subsumes it
// and is not subsumed back; of exact duplicates the first stays.
func MinimizePairwise(rows []tableau.Row) []tableau.Row {
	keep := make([]bool, len(rows))
	for i := range keep {
		keep[i] = true
	}
	for i, ri := range rows {
		for j, rj := range rows {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			if subsumes(rj, ri) && !subsumes(ri, rj) {
				keep[i] = false
			}
		}
	}
	seen := map[string]bool{}
	var out []tableau.Row
	for i, r := range rows {
		if k := r.String(); keep[i] && !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func subsumes(a, b tableau.Row) bool {
	if a.Variable() != b.Variable() {
		return false
	}
	if a.Variable() {
		return b.LHS.RestrictionOf(a.LHS)
	}
	if a.RHS != b.RHS {
		return false
	}
	return embed(a.LHS).Contains(embed(b.LHS))
}

// embed parses the embedded pattern anew into a pattern of its own, with
// automata no other caller has touched.
func embed(q pattern.Constrained) pattern.Pattern {
	return pattern.MustParse(q.Embedded().String())
}

// Describe renders rows one per line with everything Minimize must carry
// over, for comparing two outcomes row for row.
func Describe(rows []tableau.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s [support %d position %d]\n", r, r.Support, r.Position)
	}
	return b.String()
}
