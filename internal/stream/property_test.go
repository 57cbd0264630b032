package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// TestReplayEquivalence is the subsystem's acceptance property: replay
// random delta scripts — appends, cell updates, row deletes, mixed
// batches — and after every batch the maintained violation set must be
// byte-identical to a fresh full detection over the current table, at
// parallelism 1 and 4. It additionally folds every emitted diff into a
// shadow violation state and checks the folded state matches, so the
// diffs themselves (not just the final set) are exact.
func TestReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			replayOnce(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// propRules mixes constant and variable rows across two column pairs,
// including an ambiguous variable pattern (`<\D+>\D+` admits several
// segmentations) to exercise multi-key extraction and the violation
// reference counts.
func propRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("T", "code", "city", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<90>\D{3}`), RHS: "LA"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{3}`), RHS: tableau.Wildcard},
		)),
		pfd.New("T", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<85>\D{3}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D+>\D+`), RHS: tableau.Wildcard},
		)),
	}
}

// randRow draws cell values from small pools so collisions (shared
// blocks, repeated values) are common.
func randRow(rng *rand.Rand) []string {
	codes := []string{"90001", "90002", "10001", "85777", "85778", "abcde", ""}
	cities := []string{"LA", "NY", "SF", ""}
	phones := []string{"85123", "85124", "21111", "21112", "90909", "xyz"}
	states := []string{"FL", "NY", "CA"}
	return []string{
		codes[rng.Intn(len(codes))],
		cities[rng.Intn(len(cities))],
		phones[rng.Intn(len(phones))],
		states[rng.Intn(len(states))],
	}
}

func replayOnce(t *testing.T, rng *rand.Rand) {
	tbl := table.MustNew("T", []string{"code", "city", "phone", "state"})
	for i := 0; i < 12; i++ {
		tbl.MustAppend(randRow(rng)...)
	}
	rules := propRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, e, tbl, rules)

	// Shadow state folded from diffs, seeded with the bootstrap set.
	shadow := make(map[string]pfd.Violation)
	for _, v := range e.Violations() {
		shadow[v.Key()] = v
	}

	columns := tbl.Columns()
	for step := 0; step < 60; step++ {
		var batch Batch
		for len(batch) == 0 {
			for _, kind := range []OpKind{OpAppend, OpUpdate, OpDelete} {
				if rng.Intn(3) != 0 {
					continue
				}
				switch kind {
				case OpAppend:
					k := 1 + rng.Intn(3)
					rows := make([][]string, k)
					for i := range rows {
						rows[i] = randRow(rng)
					}
					batch = append(batch, AppendRows(rows...))
				case OpUpdate:
					if tbl.NumRows() == 0 {
						continue
					}
					batch = append(batch, UpdateCell(
						rng.Intn(tbl.NumRows()),
						columns[rng.Intn(len(columns))],
						randRow(rng)[rng.Intn(4)],
					))
				case OpDelete:
					if tbl.NumRows() < 3 {
						continue
					}
					k := 1 + rng.Intn(2)
					drop := make([]int, k)
					for i := range drop {
						drop[i] = rng.Intn(tbl.NumRows())
					}
					batch = append(batch, DeleteRows(drop...))
				}
			}
		}
		// Note: ops inside the batch see the running row count; updates and
		// deletes generated above use the pre-batch count, so clamp the
		// batch through validation — regenerate on rejection.
		diff, err := e.ApplyCtx(context.Background(), batch)
		if err != nil {
			// The random generator can produce out-of-range ops when a
			// delete precedes an update in the same batch; a rejected
			// batch must be a no-op, which assertMaintained verifies.
			assertMaintained(t, e, tbl, rules)
			continue
		}
		assertMaintained(t, e, tbl, rules)
		for _, v := range diff.Removed {
			if _, ok := shadow[v.Key()]; !ok {
				t.Fatalf("step %d: diff removed a violation the shadow never held: %+v", step, v)
			}
			delete(shadow, v.Key())
		}
		for _, v := range diff.Added {
			shadow[v.Key()] = v
		}
		want := e.Violations()
		if len(shadow) != len(want) {
			t.Fatalf("step %d: shadow size %d != maintained %d", step, len(shadow), len(want))
		}
		folded := make([]pfd.Violation, 0, len(shadow))
		for _, v := range shadow {
			folded = append(folded, v)
		}
		detect.SortViolations(folded)
		if mustJSON(t, folded) != mustJSON(t, want) {
			t.Fatalf("step %d: folding the diffs diverged from the maintained set", step)
		}
	}
}
