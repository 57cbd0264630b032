package detect

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// randomRules draws a few rules over columns k → v: constant rows whose
// patterns match one value, several, or none, with constants the column
// holds and one it does not, and variable rows of two key widths.
func randomRules(rng *rand.Rand) []*pfd.PFD {
	consts := []string{`<ab>\D{2}`, `<ab1>\D`, `<cd>\A*`, `<\LL{2}1>\D`, `<zz>\A*`, `<ab12>`, `\LL{2}<2>\D`}
	vars := []string{`<\LL{2}>\D{2}`, `<\LL{2}\D>\D`, `\LL<\LL>\A*`}
	var ps []*pfd.PFD
	for n := 1 + rng.Intn(3); n > 0; n-- {
		var rows []tableau.Row
		for m := 1 + rng.Intn(4); m > 0; m-- {
			if rng.Intn(3) == 0 {
				rows = append(rows, tableau.Row{LHS: pattern.MustParseConstrained(vars[rng.Intn(len(vars))]), RHS: tableau.Wildcard})
				continue
			}
			rows = append(rows, tableau.Row{
				LHS: pattern.MustParseConstrained(consts[rng.Intn(len(consts))]),
				RHS: []string{"x", "y", "z", "absent"}[rng.Intn(4)],
			})
		}
		ps = append(ps, pfd.New("T", "k", "v", tableau.New(rows...)))
	}
	return ps
}

func randomRow(rng *rand.Rand) []string {
	k := fmt.Sprintf("%s%d%d", []string{"ab", "cd", "ef"}[rng.Intn(3)], 1+rng.Intn(2), rng.Intn(4))
	if rng.Intn(10) == 0 {
		k = ""
	}
	return []string{k, []string{"x", "x", "x", "y", "z", ""}[rng.Intn(6)]}
}

// Property: on random tables and tableaux the indexed engine — rows-by-ID
// index under constant rows, one cached blocking under detection and
// repairs — answers DetectAllContext and RepairsAllContext byte for byte as
// the paper's baseline does (every row matched on its own, every pair
// compared), at parallelism 1, 2 and 8 on one detector shared by
// concurrent callers (run with -race: the index and the blocks are built
// once), and again after deletes, cell updates and appends have left
// dictionary IDs without rows and added IDs the first build never saw.
// The indexed side reports all pairs because the baseline does.
func TestIndexedEngineEqualsBaseline(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	violations, repairs := 0, 0
	for trial := 0; trial < 15; trial++ {
		tbl := table.MustNew("T", []string{"k", "v"})
		for n := 20 + rng.Intn(60); n > 0; n-- {
			tbl.MustAppend(randomRow(rng)...)
		}
		ps := randomRules(rng)
		var stale *Detector
		for round := 0; round < 3; round++ {
			if stale != nil && !stale.Stale() {
				t.Fatalf("trial %d round %d: detector not stale after the table changed", trial, round)
			}
			base := New(tbl, Options{DisableIndex: true, DisableBlocking: true})
			want, err := base.DetectAllContext(ctx, ps, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantRepairs, err := base.RepairsAllContext(ctx, ps, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantV, wantR := marshal(t, want.Violations), marshal(t, wantRepairs)
			violations, repairs = violations+len(want.Violations), repairs+len(wantRepairs)

			indexed, pairs := New(tbl, Options{}), New(tbl, Options{AllPairs: true})
			var wg sync.WaitGroup
			for _, par := range []int{1, 2, 8, 2, 8, 1} {
				wg.Add(1)
				go func(par int) {
					defer wg.Done()
					got, err := pairs.DetectAllContext(ctx, ps, par)
					if err != nil {
						t.Error(err)
						return
					}
					if gotV := marshal(t, got.Violations); !bytes.Equal(gotV, wantV) {
						t.Errorf("trial %d round %d parallelism %d: violations\n got  %s\n want %s", trial, round, par, gotV, wantV)
					}
					rs, err := indexed.RepairsAllContext(ctx, ps, par)
					if err != nil {
						t.Error(err)
						return
					}
					if gotR := marshal(t, rs); !bytes.Equal(gotR, wantR) {
						t.Errorf("trial %d round %d parallelism %d: repairs\n got  %s\n want %s", trial, round, par, gotR, wantR)
					}
				}(par)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Mutate for the next round: drop a tenth of the rows, rewrite
			// a few cells with values old and new, append rows.
			stale = indexed
			var drop []int
			for r := 0; r < tbl.NumRows(); r++ {
				if rng.Intn(10) == 0 {
					drop = append(drop, r)
				}
			}
			if _, err := tbl.DeleteRows(drop...); err != nil {
				t.Fatal(err)
			}
			for n := 1 + rng.Intn(5); n > 0 && tbl.NumRows() > 0; n-- {
				row := randomRow(rng)
				col := rng.Intn(2)
				tbl.SetCell(rng.Intn(tbl.NumRows()), col, row[col]+[]string{"", "9"}[rng.Intn(2)])
			}
			for n := 1 + rng.Intn(8); n > 0; n-- {
				tbl.MustAppend(randomRow(rng)...)
			}
		}
	}
	if violations < 100 || repairs < 100 {
		t.Errorf("fixtures too clean to tell the engines apart: %d violations, %d repairs", violations, repairs)
	}
}
