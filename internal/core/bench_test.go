package core

import (
	"context"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/table"
)

// benchTable generates one of the benchmark's own upload tables
// (bench/gen.go): datagen seed 2019, 0.5% injected errors.
func benchTable(gen func(n int, errRate float64, seed int64) *datagen.Dataset, rows int) *table.Table {
	return gen(rows, 0.005, 2019).Table
}

// runUpload is what one upload costs past CSV parsing: the full pipeline
// on a new session.
func runUpload(tb testing.TB, sys *System, tbl *table.Table) {
	se := sys.NewSession("bench", tbl, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if len(se.Discovered) == 0 || len(se.Violations) == 0 {
		tb.Fatalf("fixture gave %d PFDs, %d violations", len(se.Discovered), len(se.Violations))
	}
}

func benchRun(b *testing.B, tbl *table.Table) {
	sys := NewSystem(docstore.NewMem())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runUpload(b, sys, tbl)
	}
}

func BenchmarkRunPhone10k(b *testing.B) { benchRun(b, benchTable(datagen.PhoneState, 10_000)) }
func BenchmarkRunName10k(b *testing.B)  { benchRun(b, benchTable(datagen.NameGender, 10_000)) }
func BenchmarkRunZip10k(b *testing.B)   { benchRun(b, benchTable(datagen.ZipCity, 10_000)) }
func BenchmarkRunAddresses10k(b *testing.B) {
	benchRun(b, benchTable(datagen.Addresses, 10_000))
}

// maxRunAllocsName10k bounds the heap allocations of one whole upload of
// the 10 000-row name table, the family whose tableau work (minimization
// by containment, coverage, detection over 4 340 distinct names) is all
// pattern matching. Containment on stateSets with string-keyed visited
// maps measured 348 000.
const maxRunAllocsName10k = 60_000

func TestRunAllocsName10k(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("10k-row table; the race detector's own allocations void the bound")
	}
	tbl := benchTable(datagen.NameGender, 10_000)
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{Params: DefaultParams(), Parallelism: 1})
	allocs := testing.AllocsPerRun(1, func() { runUpload(t, sys, tbl) })
	t.Logf("%.0f allocs per upload", allocs)
	if allocs > maxRunAllocsName10k {
		t.Fatalf("%.0f allocs per upload, bound %d", allocs, maxRunAllocsName10k)
	}
}
