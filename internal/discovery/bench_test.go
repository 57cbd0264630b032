package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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
// per table row, 15 % above its reading. The coded-column path allocates
// per column, per candidate and per accepted entry, not per key or per
// posting; the map-of-string-postings path it replaced measured 103 on
// this table, the per-candidate key maps 6.35; the column key index reads
// 0.23.
const maxDiscoverAllocsPerRow = 0.27

// maxDiscoverBytesPerRow bounds the bytes one Discover run allocates per
// row of the 50 000-row phone table, 15 % above its reading: the
// per-candidate key maps allocated ≈ 1 600, the column key index reads
// 694.
const maxDiscoverBytesPerRow = 798

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

// wideTable generates an m-column, rows-row table whose columns cycle
// through four shapes — a code ("KR-4821"), a name ("Walker, Maria L."),
// an address ("812 Oak Ave, Denver") and a category ("north") — in groups
// of four that share one draw of a region per row, so each group's code
// prefix and address city predict its category. Every column is the LHS
// of a candidate, and every category is the RHS of one per other column:
// the shape of a wide upload, where discovery's cost grows with the
// column pairs.
func wideTable(m, rows int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	regions := []struct{ code, city, name string }{
		{"KR", "Denver", "west"}, {"KT", "Boulder", "west"}, {"MA", "Austin", "south"},
		{"MB", "Houston", "south"}, {"NX", "Albany", "north"}, {"NY", "Buffalo", "north"},
		{"PL", "Miami", "east"}, {"PQ", "Tampa", "east"}, {"ZA", "Salem", "coast"},
	}
	firsts := []string{"Maria", "James", "Linda", "Robert", "Susan", "David", "Mary", "Thomas", "Alan", "Jerry"}
	lasts := []string{"Walker", "Smith", "Holloway", "Jones", "Green", "Baker", "Young", "King", "Clark", "Hall", "Lewis", "Scott"}
	streets := []string{"Oak", "Main", "Maple", "Lake", "Hill", "Park", "Cedar"}
	suffixes := []string{"St", "Ave", "Rd", "Blvd"}
	cols := make([]string, m)
	for j := range cols {
		cols[j] = fmt.Sprintf("%s%d", [4]string{"code", "name", "address", "category"}[j%4], j/4)
	}
	t := table.MustNew(fmt.Sprintf("wide%d", m), cols)
	row := make([]string, m)
	for i := 0; i < rows; i++ {
		var r int
		for j := range row {
			if j%4 == 0 {
				r = rng.Intn(len(regions))
			}
			switch j % 4 {
			case 0:
				row[j] = fmt.Sprintf("%s-%04d", regions[r].code, rng.Intn(10_000))
			case 1:
				row[j] = lasts[rng.Intn(len(lasts))] + ", " + firsts[rng.Intn(len(firsts))]
				if rng.Intn(2) == 0 {
					row[j] += " " + string(rune('A'+rng.Intn(26))) + "."
				}
			case 2:
				row[j] = fmt.Sprintf("%d %s %s, %s", 1+rng.Intn(9999), streets[rng.Intn(len(streets))],
					suffixes[rng.Intn(len(suffixes))], regions[r].city)
			default:
				row[j] = regions[r].name
				if rng.Intn(100) == 0 {
					row[j] = regions[rng.Intn(len(regions))].name
				}
			}
		}
		t.MustAppend(row...)
	}
	return t
}

// BenchmarkDiscoverWide mines 64- and 256-column tables of 1 000 rows;
// the 256-column case (the widest table an upload may have) is skipped
// under -short.
func BenchmarkDiscoverWide(b *testing.B) {
	for _, m := range []int{64, 256} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			if m > 64 && testing.Short() {
				b.Skip("256 columns take seconds per run")
			}
			benchDiscover(b, wideTable(m, 1_000, 2019))
		})
	}
}

// TestDiscoverBytesPerRow is the byte gate for the mining path on the
// 50 000-row phone table: what one Discover run allocates, per row.
func TestDiscoverBytesPerRow(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("50k-row table; the race detector's own allocations void the bound")
	}
	const rows = 50_000
	tbl := benchTable(datagen.PhoneState, rows)
	cfg := Default()
	cfg.Parallelism = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Discover(context.Background(), tbl, nil, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PFDs) == 0 {
		t.Fatal("fixture mined no PFD")
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
	t.Logf("%d bytes over %d rows = %.0f B/row", after.TotalAlloc-before.TotalAlloc, rows, perRow)
	if perRow > maxDiscoverBytesPerRow {
		t.Fatalf("%.0f B/row, bound %v", perRow, maxDiscoverBytesPerRow)
	}
}
