package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// TestFlipHeavyReplayEquivalence is TestReplayEquivalence aimed at the
// maintained block state's branch points instead of at breadth: tables
// of 4–12 rows in blocks of 2–6, three RHS values, one op per batch. The
// majority flips, ties on count (and falls to the smaller string), loses
// its witness to an update or a delete, rows move between blocks, and
// the ambiguous pattern makes two blocks owe the same pair — each every
// few ops. After every op the maintained set must be byte-identical to
// full detection, the patched sorted snapshot must equal the violation
// map copied out and sorted, and no slice Violations() returned earlier
// may have changed.
func TestFlipHeavyReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tbl := table.MustNew("T", flipColumns)
			for i := 0; i < 8; i++ {
				tbl.MustAppend(flipRow(rng)...)
			}
			rules := flipRules()
			e, err := NewEngineFrom(tbl, rules, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertMaintained(t, e, tbl, rules)

			type held struct {
				vs   []pfd.Violation
				json string
			}
			var handed []held
			for step := 0; step < 250; step++ {
				vs := e.Violations()
				handed = append(handed, held{vs, mustJSON(t, vs)})
				if _, err := e.Apply(Batch{flipOp(rng, tbl.NumRows())}); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				assertMaintained(t, e, tbl, rules)

				fromMap := make([]pfd.Violation, 0, len(e.vio))
				for _, ent := range e.vio {
					fromMap = append(fromMap, ent.v)
				}
				detect.SortViolations(fromMap)
				if got, want := mustJSON(t, e.log.Snapshot()), mustJSON(t, fromMap); got != want {
					t.Fatalf("step %d: patched snapshot diverged from the sorted map:\n got %s\nwant %s", step, got, want)
				}
			}
			for step, h := range handed {
				if mustJSON(t, h.vs) != h.json {
					t.Fatalf("the slice Violations() returned before step %d was mutated by a later batch", step)
				}
			}
		})
	}
}

var flipColumns = []string{"code", "city", "tag", "grp"}

// flipRules puts a fixed-prefix variable row over code→city (two blocks,
// "10" and "20") and the ambiguous `<\D+>\D+` over tag→grp, under which
// "121" and "122" share the blocks "1" and "12" — one pair, two owners.
// Each rule is listed twice: the two copies render equal violation keys,
// so they must share entries the way full detection deduplicates them,
// and a re-reference must refresh the rendering.
func flipRules() []*pfd.PFD {
	ambiguous := func() *pfd.PFD {
		return pfd.New("T", "tag", "grp", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D+>\D+`), RHS: tableau.Wildcard},
		))
	}
	prefixed := func() *pfd.PFD {
		return pfd.New("T", "code", "city", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<10>\D{3}`), RHS: "LA"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{3}`), RHS: tableau.Wildcard},
		))
	}
	return []*pfd.PFD{prefixed(), ambiguous(), ambiguous(), prefixed()}
}

var flipPools = [][]string{
	{"10001", "10002", "10003", "20001", "20002", ""},
	{"LA", "NY", "SF"},
	{"121", "122", "131", "21"},
	{"a", "b", "c"},
}

func flipRow(rng *rand.Rand) []string {
	row := make([]string, len(flipPools))
	for i, pool := range flipPools {
		row[i] = pool[rng.Intn(len(pool))]
	}
	return row
}

// flipOp draws one op against a table of n rows, steering n into 4–12.
// Half the updates and deletes aim at the first three rows, where the
// witnesses live.
func flipOp(rng *rand.Rand, n int) Op {
	target := rng.Intn(n)
	if rng.Intn(2) == 0 {
		target = rng.Intn(min(n, 3))
	}
	switch p := rng.Intn(100); {
	case n <= 4 || n < 12 && p < 30:
		return AppendRows(flipRow(rng))
	case n >= 12 || p < 45:
		return DeleteRows(target)
	default:
		col := []int{1, 1, 1, 3, 3, 0, 2}[rng.Intn(7)] // mostly RHS cells
		return UpdateCell(target, flipColumns[col], flipPools[col][rng.Intn(len(flipPools[col]))])
	}
}
