package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/table"
)

// benchCSV generates one of the benchmark's own upload tables
// (bench/gen.go: datagen seed 2019, 0.5% injected errors) as the bytes a
// client posts.
func benchCSV(tb testing.TB, gen func(n int, errRate float64, seed int64) *datagen.Dataset, rows int) []byte {
	var buf bytes.Buffer
	if err := gen(rows, 0.005, 2019).Table.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// runUpload is what one upload costs from the request body on: a fresh
// table.ReadCSV — which is where the columns are dictionary-coded, once,
// for every stage — and the full pipeline on a new session.
func runUpload(tb testing.TB, sys *System, csv []byte) {
	tbl, err := table.ReadCSV("bench", bytes.NewReader(csv))
	if err != nil {
		tb.Fatal(err)
	}
	se := sys.NewSession("bench", tbl, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if len(se.Discovered) == 0 || len(se.Violations) == 0 {
		tb.Fatalf("fixture gave %d PFDs, %d violations", len(se.Discovered), len(se.Violations))
	}
}

func benchRun(b *testing.B, gen func(n int, errRate float64, seed int64) *datagen.Dataset) {
	csv := benchCSV(b, gen, 10_000)
	sys := NewSystem(docstore.NewMem())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runUpload(b, sys, csv)
	}
}

func BenchmarkRunPhone10k(b *testing.B)     { benchRun(b, datagen.PhoneState) }
func BenchmarkRunName10k(b *testing.B)      { benchRun(b, datagen.NameGender) }
func BenchmarkRunZip10k(b *testing.B)       { benchRun(b, datagen.ZipCity) }
func BenchmarkRunAddresses10k(b *testing.B) { benchRun(b, datagen.Addresses) }

// maxRunAllocsName10k bounds the heap allocations of one whole upload of
// the 10 000-row name table, the family whose tableau work (minimization
// by containment, coverage, detection over 4 340 distinct names) is all
// pattern matching. Containment on stateSets with string-keyed visited
// maps measured 348 000. Counted from the CSV bytes an upload reads
// ≈ 24 000 — 10 000 of them encoding/csv's one string per record — where
// rows [][]string plus a coding for discovery plus one for detection read
// 44 000; the earlier bound of 16 000 (≈ 13 900) began at a parsed table.
const maxRunAllocsName10k = 26_000

func TestRunAllocsName10k(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("10k-row table; the race detector's own allocations void the bound")
	}
	csv := benchCSV(t, datagen.NameGender, 10_000)
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{Params: DefaultParams(), Parallelism: 1})
	allocs := testing.AllocsPerRun(1, func() { runUpload(t, sys, csv) })
	t.Logf("%.0f allocs per upload", allocs)
	if allocs > maxRunAllocsName10k {
		t.Fatalf("%.0f allocs per upload, bound %d", allocs, maxRunAllocsName10k)
	}
}

// TestRunBytes10k bounds the heap bytes one whole upload allocates, CSV
// parsing included, next to the allocation count above: the zip table,
// whose 10 000 rows hold 170 distinct zips, pays per distinct value (12.8
// MB past parsing when the inverted list held a posting per tuple), and
// the addresses and phone tables, whose values are all distinct. Readings
// ≈ 5.3 / 6.5 / 24.0 MB; with row-major rows and two more codings of each
// column the same measurement read 7.8 / 8.9 / 26.5.
func TestRunBytes10k(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("10k-row tables; the race detector's own allocations void the bound")
	}
	for _, c := range []struct {
		name string
		gen  func(n int, errRate float64, seed int64) *datagen.Dataset
		max  uint64
	}{
		{"zip", datagen.ZipCity, 6_200_000},
		{"addresses", datagen.Addresses, 7_400_000},
		{"phone", datagen.PhoneState, 26_000_000},
	} {
		csv := benchCSV(t, c.gen, 10_000)
		sys := NewSystemWith(docstore.NewMem(), SystemConfig{Params: DefaultParams(), Parallelism: 1})
		runUpload(t, sys, csv) // warm the process-wide pattern caches, as AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runUpload(t, sys, csv)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.1f MB per upload", c.name, float64(got)/1e6)
		if got > c.max {
			t.Errorf("%s: %d bytes per upload, bound %d", c.name, got, c.max)
		}
	}
}
