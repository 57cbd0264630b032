package anmat_test

// The contract of a long-lived table (ARCHITECTURE.md "The coded column is
// the table"): a column's dictionary is append-only, so after updates and
// deletes it lists values no row holds any more, numbered in the order the
// table first saw them — not the order a fresh load of the same rows
// would. Every analysis must nevertheless say about the table exactly what
// it says about table.FromRows of its current rows.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/dmv"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/table"
)

// TestLongLivedTableEqualsItsRows drives tables of every datagen family
// through random Append / SetCell / DeleteRows scripts that retire values,
// bring them back in later rows and move the rows that introduced them
// behind the others, and after every stretch compares — byte for byte in
// their JSON or golden rendering — the profile, the pattern summaries,
// dmv.Detect, discovery.Discover (token and n-gram modes, CleanDMVs off
// and on) and detect.DetectAllContext (with the rules just mined, and with
// the rules the table had at the start, which the drift violates more and
// more) over the long-lived table with the same calls over a fresh table
// of its rows. It fails when a zero-count
// dictionary entry is counted (as a distinct value, a suspect, a share of
// a signature or of coverage) and when dictionary order decides a tie.
func TestLongLivedTableEqualsItsRows(t *testing.T) {
	for _, fam := range goldenDiscoveryFamilies {
		for _, seed := range []int64{11, 12} {
			t.Run(fmt.Sprintf("%s_%d", fam.name, seed), func(t *testing.T) {
				live := fam.gen(240, 0.02, seed).Table
				pool := fam.gen(240, 0.02, seed+100).Table
				s := &lifeScript{rng: rand.New(rand.NewSource(seed)), live: live, pool: pool}
				standing, err := discovery.Discover(live, discovery.Default())
				if err != nil {
					t.Fatal(err)
				}
				for stretch := 0; stretch < 4; stretch++ {
					for op := 0; op < 30; op++ {
						s.step(t)
					}
					compareWithFreshLoad(t, live, standing.PFDs)
				}
				retired, reordered := false, false
				fresh := freshLoad(live)
				for c := 0; c < live.NumCols(); c++ {
					iv := live.InternedColumn(c)
					for _, n := range iv.Counts() {
						retired = retired || n == 0
					}
					reordered = reordered || !reflect.DeepEqual(iv.Dict.Values(), fresh.InternedColumn(c).Dict.Values())
				}
				if !retired || !reordered {
					t.Fatalf("the script left no retired value (%v) or no dictionary out of first-occurrence order (%v): it tested nothing", retired, reordered)
				}
			})
		}
	}
}

// lifeScript mutates live with rows and values from pool, a second table
// of the same family.
type lifeScript struct {
	rng        *rand.Rand
	live, pool *table.Table
	graveyard  [][]string // deleted rows, to come back later
	fresh      int        // values no table has held yet
}

var placeholderCells = []string{"N/A", "unknown", "-", "99999", "", "xxxx"}

func (s *lifeScript) step(t *testing.T) {
	rng, live := s.rng, s.live
	n := live.NumRows()
	deleteRows := func(rows ...int) {
		for _, r := range rows {
			s.graveyard = append(s.graveyard, live.Row(r))
		}
		if _, err := live.DeleteRows(rows...); err != nil {
			t.Fatal(err)
		}
	}
	op := rng.Intn(8)
	if n < 40 {
		op = 0 // the deletes are winning
	}
	switch op {
	case 0: // rows of the family the table has not seen
		for k := rng.Intn(4) + 40/(n+1); k >= 0; k-- {
			live.MustAppend(s.pool.Row(rng.Intn(s.pool.NumRows()))...)
		}
	case 1: // deleted rows return behind everything that came since
		for k := rng.Intn(6); k >= 0 && len(s.graveyard) > 0; k-- {
			i := rng.Intn(len(s.graveyard))
			live.MustAppend(s.graveyard[i]...)
			s.graveyard = append(s.graveyard[:i], s.graveyard[i+1:]...)
		}
	case 2: // a cell takes another row's value: ties between RHS groups, values moving
		c := rng.Intn(live.NumCols())
		live.SetCell(rng.Intn(n), c, live.Cell(rng.Intn(n), c))
	case 3: // a cell takes a placeholder or a value nobody has held
		v := placeholderCells[rng.Intn(len(placeholderCells))]
		if rng.Intn(2) == 0 {
			s.fresh++
			v = fmt.Sprintf("Zq%d", s.fresh)
		}
		live.SetCell(rng.Intn(n), rng.Intn(live.NumCols()), v)
	case 4: // random rows go
		deleteRows(rng.Intn(n), rng.Intn(n), rng.Intn(n))
	case 5: // a value retires: every row holding it goes
		c := rng.Intn(live.NumCols())
		iv := live.InternedColumn(c)
		id := iv.IDs[rng.Intn(n)]
		var rows []int
		for r, x := range iv.IDs {
			if x == id && len(rows) < n/4 {
				rows = append(rows, r)
			}
		}
		deleteRows(rows...)
	case 6: // the oldest rows move behind the others: first-seen order is no longer row order
		k := 1 + rng.Intn(n/8)
		rows := make([]int, k)
		for i := range rows {
			rows[i] = i
		}
		moved := s.graveyard
		s.graveyard = nil
		deleteRows(rows...)
		for _, row := range s.graveyard {
			live.MustAppend(row...)
		}
		s.graveyard = moved
	case 7: // a value is overwritten everywhere, then written back into one row
		c := rng.Intn(live.NumCols())
		old := live.Cell(rng.Intn(n), c)
		last := -1
		for r := 0; r < n; r++ {
			if live.Cell(r, c) == old {
				live.SetCell(r, c, live.Cell((r+1)%n, c))
				last = r
			}
		}
		if rng.Intn(2) == 0 {
			live.SetCell(last, c, old)
		}
	}
}

func freshLoad(live *table.Table) *table.Table {
	rows := make([][]string, live.NumRows())
	for r := range rows {
		rows[r] = live.Row(r)
	}
	return table.MustFromRows(live.Name(), live.Columns(), rows)
}

func violationsJSON(t *testing.T, tbl *table.Table, rules []*pfd.PFD) string {
	t.Helper()
	det, err := detect.New(tbl, detect.Options{}).DetectAllContext(context.Background(), rules, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(det.Violations)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func compareWithFreshLoad(t *testing.T, live *table.Table, standing []*pfd.PFD) {
	t.Helper()
	fresh := freshLoad(live)
	same := func(what string, ofLive, ofFresh any) {
		t.Helper()
		a, err := json.Marshal(ofLive)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(ofFresh)
		if string(a) != string(b) {
			t.Fatalf("%s differs\nover the long-lived table: %s\nover its rows:              %s", what, a, b)
		}
	}
	same("profile", profile.ProfileTable(live), profile.ProfileTable(fresh))
	for c, name := range live.Columns() {
		lc, fc := live.InternedColumn(c), fresh.InternedColumn(c)
		same("column patterns of "+name, profile.ColumnPatterns(lc), profile.ColumnPatterns(fc))
		same("token patterns of "+name, profile.TokenPatterns(lc), profile.TokenPatterns(fc))
		same("DMV suspects of "+name, dmv.Detect(lc, dmv.Options{}), dmv.Detect(fc, dmv.Options{}))
	}
	for _, mode := range []discovery.Mode{discovery.ModeTokens, discovery.ModeNGrams} {
		for _, clean := range []bool{false, true} {
			cfg := discovery.Default()
			cfg.Mode, cfg.CleanDMVs = mode, clean
			what := fmt.Sprintf("mode %d, CleanDMVs %v", mode, clean)
			var rendered [2]strings.Builder
			var violations [2]string
			for i, tbl := range []*table.Table{live, fresh} {
				res, err := discovery.Discover(tbl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				renderDiscoveryResult(&rendered[i], res)
				violations[i] = violationsJSON(t, tbl, res.PFDs)
			}
			if a, b := rendered[0].String(), rendered[1].String(); a != b {
				t.Fatalf("discovery (%s) differs\nover the long-lived table:\n%s\nover its rows:\n%s", what, a, b)
			}
			same("detection ("+what+")", violations[0], violations[1])
		}
	}
	same("detection (standing rules)", violationsJSON(t, live, standing), violationsJSON(t, fresh, standing))
}
