package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// groupedConsts are constant-row LHS patterns of every kind the grouped
// verdicts tell apart: rows sharing an anchored shape (a two-byte
// literal, then \D{2}; a one-byte literal, then \A*), pure literals, a
// literal longer than many values, a U+FFFD literal (which anchors
// nothing), and rows with no leading literal.
var groupedConsts = []string{
	`<12>\D{2}`, `<ab>\D{2}`, `<é>\D{2}`, `<1a>\D{2}`,
	`<1>\A*`, `<a>\A*`, `<é>\A*`,
	`<12>`, `<ab12>`, `<é1>`, `<>`,
	`<1234567>\A*`, `<ab12>\D*`,
	`<�1>\A*`,
	`\D<2>\A*`, `<\A*1>`, `\LL{2}<\D>\D`,
}

// groupedValue draws an LHS value: short strings over digits, letters,
// a two-byte rune and an invalid byte, so literals are longer than some
// values and prefixes cut through multi-byte runes.
func groupedValue(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(7); n > 0; n-- {
		b = append(b, []string{"1", "2", "3", "a", "b", "é", "\xff"}[rng.Intn(7)]...)
	}
	return string(b)
}

// groupedTable draws a k → v table of n rows.
func groupedTable(rng *rand.Rand, n int) *table.Table {
	tbl := table.MustNew("T", []string{"k", "v"})
	for i := 0; i < n; i++ {
		tbl.MustAppend(groupedValue(rng), []string{"x", "y", "z"}[rng.Intn(3)])
	}
	return tbl
}

// groupedRules draws one or two rules over k → v from groupedConsts,
// with a variable row now and then.
func groupedRules(rng *rand.Rand) []*pfd.PFD {
	var ps []*pfd.PFD
	for n := 1 + rng.Intn(2); n > 0; n-- {
		var rows []tableau.Row
		for m := 2 + rng.Intn(6); m > 0; m-- {
			if rng.Intn(6) == 0 {
				rows = append(rows, tableau.Row{LHS: pattern.MustParseConstrained(`<\A>\A*`), RHS: tableau.Wildcard})
				continue
			}
			rows = append(rows, tableau.Row{
				LHS: pattern.MustParseConstrained(groupedConsts[rng.Intn(len(groupedConsts))]),
				RHS: []string{"x", "y", "absent"}[rng.Intn(3)],
			})
		}
		ps = append(ps, pfd.New("T", "k", "v", tableau.New(rows...)))
	}
	return ps
}

// Property: on random tables and tableaux whose constant rows share
// anchored shapes, are pure literals, have literals longer than some
// values, or anchor nothing, every constant row's ConstantHits — the
// anchored pass, the dictionary lookup or the verdict scan — equals the
// DisableIndex scan that matches every row on its own, and
// DetectAllContext is byte-identical to that ablation.
func TestGroupedVerdictsMatchTheScan(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		tbl := groupedTable(rng, 1+rng.Intn(60))
		rules := groupedRules(rng)
		grouped, scan := New(tbl, Options{}), New(tbl, Options{DisableIndex: true})
		for _, p := range rules {
			for _, row := range p.Tableau.Rows() {
				if row.Variable() {
					continue
				}
				got, want := grouped.ConstantHits(row, 0, 1), scan.ConstantHits(row, 0, 1)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, row %s: hits %v, the scan finds %v", trial, row, got, want)
				}
			}
		}
		render := func(d *Detector) []byte {
			res, err := d.DetectAllContext(ctx, rules, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res.Violations)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if got, want := render(grouped), render(scan); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: DetectAllContext differs from the DisableIndex ablation:\n%s\n%s", trial, got, want)
		}
	}
}
