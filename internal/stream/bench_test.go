package stream

import (
	"context"
	"fmt"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// benchAreas maps area codes to their clean state, phone_state style.
var benchAreas = []struct{ area, state string }{
	{"850", "FL"}, {"212", "NY"}, {"305", "FL"}, {"713", "TX"}, {"617", "MA"},
}

// benchRow generates row i deterministically; every 97th row is dirty.
func benchRow(i int) []string {
	a := benchAreas[i%len(benchAreas)]
	state := a.state
	if i%97 == 0 {
		state = "ZZ"
	}
	return []string{a.area + fmt.Sprintf("%07d", i), state}
}

func benchTable(n int) *table.Table {
	t := table.MustNew("Phone", []string{"phone", "state"})
	for i := 0; i < n; i++ {
		t.MustAppend(benchRow(i)...)
	}
	return t
}

func benchRules() []*pfd.PFD {
	rows := []tableau.Row{
		{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
	}
	for _, a := range benchAreas {
		rows = append(rows, tableau.Row{
			LHS: pattern.MustParseConstrained(`<` + a.area + `>\D{7}`),
			RHS: a.state,
		})
	}
	return []*pfd.PFD{pfd.New("Phone", "phone", "state", tableau.New(rows...))}
}

// BenchmarkStreamAppend compares maintaining the violation set through
// the incremental engine against the pre-subsystem behaviour — rebuild
// the detection engine and re-run full detection after every batch — at
// delta batch sizes 1, 10 and 100 over a 20k-row table: compare each
// batchN/incremental result with its batchN/full sibling.
func BenchmarkStreamAppend(b *testing.B) {
	const base = 20000
	for _, size := range []int{1, 10, 100} {
		size := size
		b.Run(fmt.Sprintf("batch%d/incremental", size), func(b *testing.B) {
			tbl := benchTable(base)
			rules := benchRules()
			eng, err := NewEngineFrom(tbl, rules, 0)
			if err != nil {
				b.Fatal(err)
			}
			next := base
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := make([][]string, size)
				for j := range rows {
					rows[j] = benchRow(next)
					next++
				}
				if _, err := eng.Apply(Batch{AppendRows(rows...)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch%d/full", size), func(b *testing.B) {
			tbl := benchTable(base)
			rules := benchRules()
			ctx := context.Background()
			next := base
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < size; j++ {
					tbl.MustAppend(benchRow(next)...)
					next++
				}
				if _, err := detect.New(tbl, detect.Options{}).DetectAllContext(ctx, rules, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamRepair measures routing a single-cell repair (update
// delta) through the engine versus re-detecting after an in-place write.
func BenchmarkStreamRepair(b *testing.B) {
	const base = 20000
	b.Run("incremental", func(b *testing.B) {
		tbl := benchTable(base)
		eng, err := NewEngineFrom(tbl, benchRules(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			state := "ZZ"
			if i%2 == 1 {
				state = benchAreas[0].state
			}
			if _, err := eng.Apply(Batch{UpdateCell(0, "state", state)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		tbl := benchTable(base)
		rules := benchRules()
		ctx := context.Background()
		si, _ := tbl.ColIndex("state")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			state := "ZZ"
			if i%2 == 1 {
				state = benchAreas[0].state
			}
			tbl.SetCell(0, si, state)
			if _, err := detect.New(tbl, detect.Options{}).DetectAllContext(ctx, rules, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
