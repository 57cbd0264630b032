package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// TestReplayEquivalenceAcrossShards generalizes the stream subsystem's
// acceptance property over the shard count: replay random delta scripts —
// appends, cell updates, row deletes, mixed batches — through a K-shard
// coordinator and after every batch the merged violation set must be
// byte-identical to a fresh full detection over the global table, for
// K ∈ {1,2,4,8}, at parallelism 1 and 4. The same script is also folded
// through the emitted diffs into a shadow state, so the merged diffs (not
// just the final sets) are exact; and a single-engine replica applies the
// same accepted batches, pinning coordinator output to stream.Engine
// output batch by batch.
func TestReplayEquivalenceAcrossShards(t *testing.T) {
	for _, k := range shardKs {
		for seed := int64(0); seed < 6; seed++ {
			k, seed := k, seed
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				replayOnce(t, k, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// propRules mixes constant and variable rows across two column pairs,
// including an ambiguous variable pattern (`<\D+>\D+` admits several
// segmentations) so one tuple pair can surface through block keys owned
// by different shards.
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

func replayOnce(t *testing.T, k int, rng *rand.Rand) {
	tbl := table.MustNew("T", []string{"code", "city", "phone", "state"})
	for i := 0; i < 12; i++ {
		tbl.MustAppend(randRow(rng)...)
	}
	rules := propRules()
	// Replica: the proven single-table engine over its own table copy,
	// fed the same accepted batches.
	replicaTbl := tbl.Clone()
	replica, err := stream.NewEngineFrom(replicaTbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFrom(tbl, rules, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMerged(t, c, tbl, rules)

	shadow := make(map[string]pfd.Violation)
	for _, v := range c.Violations() {
		shadow[v.Key()] = v
	}

	columns := tbl.Columns()
	for step := 0; step < 50; step++ {
		var batch stream.Batch
		for len(batch) == 0 {
			for _, kind := range []stream.OpKind{stream.OpAppend, stream.OpUpdate, stream.OpDelete} {
				if rng.Intn(3) != 0 {
					continue
				}
				switch kind {
				case stream.OpAppend:
					n := 1 + rng.Intn(3)
					rows := make([][]string, n)
					for i := range rows {
						rows[i] = randRow(rng)
					}
					batch = append(batch, stream.AppendRows(rows...))
				case stream.OpUpdate:
					if tbl.NumRows() == 0 {
						continue
					}
					batch = append(batch, stream.UpdateCell(
						rng.Intn(tbl.NumRows()),
						columns[rng.Intn(len(columns))],
						randRow(rng)[rng.Intn(4)],
					))
				case stream.OpDelete:
					if tbl.NumRows() < 3 {
						continue
					}
					n := 1 + rng.Intn(2)
					drop := make([]int, n)
					for i := range drop {
						drop[i] = rng.Intn(tbl.NumRows())
					}
					batch = append(batch, stream.DeleteRows(drop...))
				}
			}
		}
		diff, err := c.Apply(batch)
		if err != nil {
			// Random scripts can produce out-of-range ops when a delete
			// precedes an update in the same batch; a rejected batch must
			// be a no-op.
			assertMerged(t, c, tbl, rules)
			continue
		}
		assertMerged(t, c, tbl, rules)

		// The single-engine replica must accept the batch too, and land on
		// the same bytes.
		rdiff, err := replica.Apply(batch)
		if err != nil {
			t.Fatalf("step %d: replica rejected a batch the coordinator accepted: %v", step, err)
		}
		if mustJSON(t, c.Violations()) != mustJSON(t, replica.Violations()) {
			t.Fatalf("step %d: coordinator and single engine diverged", step)
		}
		if mustJSON(t, diff.Added) != mustJSON(t, rdiff.Added) || mustJSON(t, diff.Removed) != mustJSON(t, rdiff.Removed) {
			t.Fatalf("step %d: coordinator diff diverged from single-engine diff:\n coord +%s -%s\n engine +%s -%s",
				step, mustJSON(t, diff.Added), mustJSON(t, diff.Removed), mustJSON(t, rdiff.Added), mustJSON(t, rdiff.Removed))
		}

		for _, v := range diff.Removed {
			if _, ok := shadow[v.Key()]; !ok {
				t.Fatalf("step %d: diff removed a violation the shadow never held: %+v", step, v)
			}
			delete(shadow, v.Key())
		}
		for _, v := range diff.Added {
			shadow[v.Key()] = v
		}
		want := c.Violations()
		if len(shadow) != len(want) {
			t.Fatalf("step %d: shadow size %d != merged %d", step, len(shadow), len(want))
		}
		folded := make([]pfd.Violation, 0, len(shadow))
		for _, v := range shadow {
			folded = append(folded, v)
		}
		detect.SortViolations(folded)
		if mustJSON(t, folded) != mustJSON(t, want) {
			t.Fatalf("step %d: folding the diffs diverged from the merged set", step)
		}
	}
}
