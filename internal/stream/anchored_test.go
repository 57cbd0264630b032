package stream

import (
	"context"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// memoConsts are constant-row LHS patterns of every kind the engine
// tells apart: anchored rows of two shared shapes, pure literals,
// a literal longer than many values, and rows with no leading literal.
var memoConsts = []string{
	`<12>\D{2}`, `<ab>\D{2}`, `<é>\D{2}`, `<1>\A*`, `<a>\A*`,
	`<12>`, `<ab1>`, `<1234567>\A*`, `<�1>\A*`, `\D<2>\A*`, `<\A*1>`,
}

func memoValue(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		b = append(b, []string{"1", "2", "a", "b", "é", "\xff"}[rng.Intn(6)]...)
	}
	return string(b)
}

// Property: a booted engine's constant-row verdicts — a literal row's
// comparison, an anchored group's shared slots and, past them, the
// group's own lookup of each new ID, a verdict memo — answer
// Pattern.Matches for every dictionary ID of the LHS column: the IDs the
// boot's detector saw, and the IDs appends and updates add after it, for
// two rules whose rows share shapes. The maintained set stays full
// detection's throughout.
func TestConstMemoAnswersMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 100; trial++ {
		tbl := table.MustNew("T", []string{"k", "v"})
		for n := 1 + rng.Intn(30); n > 0; n-- {
			tbl.MustAppend(memoValue(rng), []string{"x", "y"}[rng.Intn(2)])
		}
		var rules []*pfd.PFD
		for r := 0; r < 2; r++ {
			var rows []tableau.Row
			for m := 1 + rng.Intn(6); m > 0; m-- {
				rows = append(rows, tableau.Row{LHS: pattern.MustParseConstrained(memoConsts[rng.Intn(len(memoConsts))]), RHS: "x"})
			}
			rules = append(rules, pfd.New("T", "k", "v", tableau.New(rows...)))
		}
		e, err := NewEngineFrom(tbl, rules, 0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			for _, rs := range e.rs {
				for tri, row := range rs.rows {
					m := row.LHS.Embedded()
					for id, v := range rs.liv.Dict.Values() {
						if got, want := rs.matches(tri, uint32(id)), m.Matches(v); got != want {
							t.Fatalf("trial %d %s: row %s on %q (ID %d): memo %v, Matches %v", trial, when, row, v, id, got, want)
						}
					}
				}
			}
			assertMaintained(t, e, tbl, rules)
		}
		check("at the boot")
		for n := 1 + rng.Intn(8); n > 0; n-- {
			b := Batch{AppendRows([]string{memoValue(rng), "y"})}
			if rng.Intn(2) == 0 {
				b = Batch{UpdateCell(rng.Intn(tbl.NumRows()), "k", memoValue(rng))}
			}
			if _, err := e.ApplyCtx(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		check("after the deltas")
	}
}
