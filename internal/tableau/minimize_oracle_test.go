package tableau_test

import (
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/tableau"
	"github.com/anmat/anmat/internal/tableau/tableautest"
)

// TestMinimizeMatchesPairwiseOnRandomTableaux compares the grouped,
// memoized Minimize row for row with the pairwise reference on tableaux
// built to hit what a grouping rewrite can break: exact duplicates (the
// first must stay), rows of equal language written differently (all must
// stay — neither strictly subsumes the other), chains of ever more general
// rows, constant rows sharing an LHS across different RHS, and variable
// rows mixed in between them.
func TestMinimizeMatchesPairwiseOnRandomTableaux(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	constLHS := []string{
		`<9>\D{4}`, `<90>\D{3}`, `<900>\D{2}`, `<9001>\D{1}`, `<9001>\D`, // a chain; the last two are one language
		`<90>\D\D{2}`, `<90>\D{2}\D`, // equal to <90>\D{3}
		`\A*,\ <Mary>\A*`, `\A*,\ <Mary>`, `\A*,\ <Mary>\ \LU.`, `\A*<Mary>\A*`,
		`<\D{5}>`, `<\D+>`, `<\D*>`, `<\A*>`,
		`<King,\ >\A*`, `<King,\ >\LU\LL+`,
	}
	varLHS := []string{
		`<\D{3}>\D{7}`, `<\D{3}>\D+`, `<\D{3}>\A*`, `<\D{3}\D{7}>`, `<\D{10}>`,
		`<\LU\LL*\ >\A*`, `<\LU\LL*\ >\LU\LL*`, `<\LU\LL*\ \LU\LL*>`,
		`\A*,\ <\LU\LL+>\A*`, `\A*,\ <\LU\LL+>`,
	}
	rhs := []string{"LA", "NY", "F", tableau.Wildcard}
	for trial := 0; trial < 300; trial++ {
		var rows []tableau.Row
		for n := 2 + rng.Intn(14); len(rows) < n; {
			r := tableau.Row{RHS: rhs[rng.Intn(len(rhs))], Support: rng.Intn(4), Position: rng.Intn(3)}
			if r.Variable() {
				r.LHS = pattern.MustParseConstrained(varLHS[rng.Intn(len(varLHS))])
			} else {
				r.LHS = pattern.MustParseConstrained(constLHS[rng.Intn(len(constLHS))])
			}
			rows = append(rows, r)
			if rng.Intn(4) == 0 { // an exact duplicate, here or further down
				rows = append(rows, r)
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		want := tableautest.Describe(tableautest.MinimizePairwise(rows))
		tab := tableau.New(rows...)
		tab.Minimize()
		if got := tableautest.Describe(tab.Rows()); got != want {
			t.Fatalf("trial %d: Minimize differs from the pairwise reference\ninput:\n%sgot:\n%swant:\n%s",
				trial, tableautest.Describe(rows), got, want)
		}
	}
}
