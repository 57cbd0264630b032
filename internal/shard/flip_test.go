package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// TestFlipHeavyReplayEquivalenceAcrossShards runs the stream package's
// flip-heavy script (tables of 4–12 rows in blocks of 2–6, three RHS
// values, one op per batch: majority flips, count ties, witnesses updated
// and deleted, rows moving between blocks, pairs owed by two blocks)
// through K-shard coordinators. LHS updates migrate rows between shards,
// so a shard's local row order stops matching its global order and the
// engines' ordered group insertion is exercised out of order. After every
// op the merged set must be byte-identical to full detection and to a
// single engine's, the coordinator's patched snapshot must hold as many
// violations as its merged set, and no slice Violations() returned
// earlier may have changed.
func TestFlipHeavyReplayEquivalenceAcrossShards(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tbl := table.MustNew("T", flipColumns)
				for i := 0; i < 8; i++ {
					tbl.MustAppend(flipRow(rng)...)
				}
				rules := flipRules()
				replica, err := stream.NewEngineFrom(tbl.Clone(), rules, 0)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewWith(tbl, rules, k, Config{})
				if err != nil {
					t.Fatal(err)
				}
				assertMerged(t, c, tbl, rules)

				type held struct {
					vs   []pfd.Violation
					json string
				}
				var handed []held
				for step := 0; step < 150; step++ {
					vs := c.Violations()
					handed = append(handed, held{vs, mustJSON(t, vs)})
					batch := stream.Batch{flipOp(rng, tbl.NumRows())}
					diff, err := c.ApplyCtx(context.Background(), batch)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					assertMerged(t, c, tbl, rules)
					rdiff, err := replica.ApplyCtx(context.Background(), batch)
					if err != nil {
						t.Fatalf("step %d: replica: %v", step, err)
					}
					if mustJSON(t, diff.Added) != mustJSON(t, rdiff.Added) || mustJSON(t, diff.Removed) != mustJSON(t, rdiff.Removed) {
						t.Fatalf("step %d: coordinator diff diverged from single-engine diff:\n coord +%s -%s\n engine +%s -%s",
							step, mustJSON(t, diff.Added), mustJSON(t, diff.Removed), mustJSON(t, rdiff.Added), mustJSON(t, rdiff.Removed))
					}

					if got, want := len(c.Violations()), c.vio.Len(); got != want {
						t.Fatalf("step %d: patched snapshot holds %d violations, the merged set %d", step, got, want)
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
}

var flipColumns = []string{"code", "city", "tag", "grp"}

// flipRules puts a fixed-prefix variable row over code→city (two blocks,
// "10" and "20") and the ambiguous `<\D+>\D+` over tag→grp, under which
// "121" and "122" share the blocks "1" and "12" — one pair, two owners,
// on two shards when the keys hash apart. Each rule is listed twice: the
// two copies render equal violation keys and must share entries.
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
// witnesses live; a third of the updates rewrite an LHS cell.
func flipOp(rng *rand.Rand, n int) stream.Op {
	target := rng.Intn(n)
	if rng.Intn(2) == 0 {
		target = rng.Intn(min(n, 3))
	}
	switch p := rng.Intn(100); {
	case n <= 4 || n < 12 && p < 30:
		return stream.AppendRows(flipRow(rng))
	case n >= 12 || p < 45:
		return stream.DeleteRows(target)
	default:
		col := []int{1, 1, 3, 3, 0, 2}[rng.Intn(6)]
		return stream.UpdateCell(target, flipColumns[col], flipPools[col][rng.Intn(len(flipPools[col]))])
	}
}
