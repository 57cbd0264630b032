package core

import (
	"context"
	"runtime"
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
// maps measured 348 000; it reads ≈ 13 900 since the profile stage's
// codings reach discovery.
const maxRunAllocsName10k = 16_000

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

// TestRunBytes10k bounds the heap bytes one whole upload allocates, next
// to the allocation count above: the zip table, whose 10 000 rows hold 170
// distinct zips, pays per distinct value (12.8 MB when the inverted list
// held a posting per tuple, ≈ 5.7 now), and the addresses and phone
// tables, whose values are all distinct and gain nothing from grouping,
// stay at or under what they cost before it (8.6 and 27.9 MB).
func TestRunBytes10k(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("10k-row tables; the race detector's own allocations void the bound")
	}
	for _, c := range []struct {
		name string
		gen  func(n int, errRate float64, seed int64) *datagen.Dataset
		max  uint64
	}{
		{"zip", datagen.ZipCity, 8 << 20},
		{"addresses", datagen.Addresses, 8_600_000},
		{"phone", datagen.PhoneState, 27_900_000},
	} {
		tbl := benchTable(c.gen, 10_000)
		sys := NewSystemWith(docstore.NewMem(), SystemConfig{Params: DefaultParams(), Parallelism: 1})
		runUpload(t, sys, tbl) // warm the process-wide pattern caches, as AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runUpload(t, sys, tbl)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.1f MB per upload", c.name, float64(got)/1e6)
		if got > c.max {
			t.Errorf("%s: %d bytes per upload, bound %d", c.name, got, c.max)
		}
	}
}
