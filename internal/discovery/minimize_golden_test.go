package discovery

import (
	"context"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/tableau/tableautest"
)

// TestMinimizeMatchesPairwiseOnGoldenFamilies feeds tableau.Minimize the
// tableaux mining really hands it — every candidate of the six golden
// families (the tables of TestGoldenDiscovery) under the three modes, as
// they stand before minimization — and compares the outcome row for row
// with the pairwise reference.
func TestMinimizeMatchesPairwiseOnGoldenFamilies(t *testing.T) {
	families := []struct {
		name string
		gen  func(n int, errRate float64, seed int64) *datagen.Dataset
	}{
		{"phone", datagen.PhoneState}, {"name", datagen.NameGender}, {"zip", datagen.ZipCity},
		{"employee", datagen.EmployeeID}, {"compound", datagen.Compound}, {"addresses", datagen.Addresses},
	}
	for _, fam := range families {
		tbl := fam.gen(2000, 0.01, 2019).Table
		tp := profile.ProfileTable(tbl)
		for _, mode := range []Mode{ModeAuto, ModeTokens, ModeNGrams} {
			cfg := Default()
			cfg.Mode = mode
			rowsIn, rowsOut := 0, 0
			for _, cand := range profile.Candidates(tp) {
				li, _ := tbl.ColIndex(cand.LHS)
				ri, _ := tbl.ColIndex(cand.RHS)
				var stats CandidateStats
				tab, err := candidateTableau(context.Background(), cand, columnOf(tbl.InternedColumn(li), false), columnOf(tbl.InternedColumn(ri), false), cfg, cfg.defaultDecision(), &stats)
				if err != nil {
					t.Fatal(err)
				}
				before := tab.Rows()
				want := tableautest.Describe(tableautest.MinimizePairwise(before))
				tab.Minimize()
				if got := tableautest.Describe(tab.Rows()); got != want {
					t.Fatalf("%s mode %d %s: Minimize differs from the pairwise reference\ninput:\n%sgot:\n%swant:\n%s",
						fam.name, mode, cand, tableautest.Describe(before), got, want)
				}
				rowsIn += len(before)
				rowsOut += tab.Len()
			}
			t.Logf("%s mode %d: %d rows minimized to %d", fam.name, mode, rowsIn, rowsOut)
		}
	}
}
