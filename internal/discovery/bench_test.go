package discovery

import (
	"context"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/table"
)

// benchTable generates one of the benchmark's own upload tables
// (bench/gen.go): datagen seed 2019, 0.5% injected errors.
func benchTable(gen func(n int, errRate float64, seed int64) *datagen.Dataset, rows int) *table.Table {
	return gen(rows, 0.005, 2019).Table
}

var benchSink *Result

func benchDiscover(b *testing.B, tbl *table.Table) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Discover(context.Background(), tbl, nil, Default())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
	if len(benchSink.PFDs) == 0 {
		b.Fatal("fixture mined no PFD")
	}
}

func BenchmarkDiscoverPhone10k(b *testing.B) {
	benchDiscover(b, benchTable(datagen.PhoneState, 10_000))
}
func BenchmarkDiscoverZip10k(b *testing.B)  { benchDiscover(b, benchTable(datagen.ZipCity, 10_000)) }
func BenchmarkDiscoverName10k(b *testing.B) { benchDiscover(b, benchTable(datagen.NameGender, 10_000)) }
func BenchmarkDiscoverAddresses10k(b *testing.B) {
	benchDiscover(b, benchTable(datagen.Addresses, 10_000))
}
func BenchmarkDiscoverPhone50k(b *testing.B) {
	benchDiscover(b, benchTable(datagen.PhoneState, 50_000))
}

// maxDiscoverAllocsPerRow bounds a whole Discover run's heap allocations
// per table row. The coded-column path allocates per distinct key and per
// accepted entry, not per posting; the map-of-string-postings path it
// replaced measured 103 on this table; it reads ≈ 6.35.
const maxDiscoverAllocsPerRow = 7.3

// TestDiscoverAllocsPerRow is the allocation gate for the mining path:
// profile, inverted list, analysis, tableau and coverage over the
// 10 000-row phone→state table.
func TestDiscoverAllocsPerRow(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("10k-row table; the race detector's own allocations void the bound")
	}
	const rows = 10_000
	tbl := benchTable(datagen.PhoneState, rows)
	cfg := Default()
	cfg.Parallelism = 1
	var pfds int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := Discover(context.Background(), tbl, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pfds = len(res.PFDs)
	})
	if pfds == 0 {
		t.Fatal("fixture mined no PFD")
	}
	perRow := allocs / rows
	t.Logf("%.0f allocs over %d rows = %.2f allocs/row (%d PFDs)", allocs, rows, perRow, pfds)
	if perRow > maxDiscoverAllocsPerRow {
		t.Fatalf("%.2f allocs/row, bound %v", perRow, maxDiscoverAllocsPerRow)
	}
}
