package shard

import (
	"fmt"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/race"
)

// maxBootAllocsPerRow bounds a sharded detection's heap allocations per
// table row. It is the gate the retired bench records carried
// (BenchmarkShardDetect: 64 allocs/row before the interned columnar hot
// path, 0.20–0.22 after, at every K); a constant bound needs no record
// file and no tool.
const maxBootAllocsPerRow = 0.25

// TestShardDetectAllocsPerRow bootstraps a coordinator — routing, K
// engine builds, the global merge — over a 100k-row phone→state table.
func TestShardDetectAllocsPerRow(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("100k-row table; the race detector's own allocations void the bound")
	}
	const rows = 100_000
	tbl := datagen.PhoneState(rows, 0.005, 2019).Table
	rules := benchRules()
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := NewWith(tbl, rules, k, Config{}); err != nil {
					t.Fatal(err)
				}
			})
			perRow := allocs / rows
			t.Logf("%.0f allocs over %d rows = %.3f allocs/row", allocs, rows, perRow)
			if perRow > maxBootAllocsPerRow {
				t.Fatalf("%.3f allocs/row, bound %.2f", perRow, maxBootAllocsPerRow)
			}
		})
	}
}
