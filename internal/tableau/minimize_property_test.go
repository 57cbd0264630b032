package tableau

import (
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
)

// Property: minimizing a constant-row tableau never
// changes which values violate it. A value violates a tableau when it
// matches some row's LHS with a different RHS; subsumed rows have a more
// general row with the same RHS, so the violation set is preserved.
func TestMinimizePreservesConstantViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))

	// Random constant tableaux over zip-like values: rows are prefix
	// rules of random depth with RHS drawn from a small pool so that
	// subsumption actually happens.
	cities := []string{"LA", "NY", "CHI"}
	for trial := 0; trial < 25; trial++ {
		var rows []Row
		nRows := 2 + rng.Intn(6)
		for i := 0; i < nRows; i++ {
			depth := 1 + rng.Intn(4)
			prefix := ""
			for j := 0; j < depth; j++ {
				prefix += string(rune('0' + rng.Intn(3)))
			}
			tail := pattern.MustParse(`\D*`)
			rows = append(rows, Row{
				LHS: pattern.PrefixKey(pattern.Literal(prefix), tail),
				RHS: cities[rng.Intn(len(cities))],
			})
		}
		full := New(rows...)
		min := New(rows...)
		min.Minimize()

		// Evaluate both on random values.
		violates := func(tp *Tableau, v, rhs string) bool {
			for _, r := range tp.Rows() {
				if r.LHS.Embedded().Matches(v) && rhs != r.RHS {
					return true
				}
			}
			return false
		}
		for k := 0; k < 100; k++ {
			ln := 1 + rng.Intn(6)
			v := ""
			for j := 0; j < ln; j++ {
				v += string(rune('0' + rng.Intn(3)))
			}
			rhs := cities[rng.Intn(len(cities))]
			if violates(full, v, rhs) != violates(min, v, rhs) {
				t.Fatalf("trial %d: minimize changed violation verdict for (%q, %q)\nfull:\n%s\nmin:\n%s",
					trial, v, rhs, full, min)
			}
		}
	}
}
