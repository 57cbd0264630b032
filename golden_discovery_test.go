package anmat_test

// Golden discovery corpus: the complete discovery.Result — every PFD's
// tableau rows with support, position and coverage, and every candidate's
// CandidateStats — for the datagen families under every decomposition
// mode, with and without DMV cleaning, on two seeds. It pins the mining
// path (profile → inverted list → decision → tableau) byte for byte, so a
// rewrite of that path is judged against the output of the code it
// replaces. Regenerate with:
//
//	go test -run TestGoldenDiscovery -update

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/discovery"
)

const (
	goldenDiscoveryRows    = 2000
	goldenDiscoveryErrRate = 0.01
)

var goldenDiscoveryFamilies = []struct {
	name string
	gen  func(n int, errRate float64, seed int64) *datagen.Dataset
}{
	{"phone", datagen.PhoneState},
	{"name", datagen.NameGender},
	{"zip", datagen.ZipCity},
	{"employee", datagen.EmployeeID},
	{"compound", datagen.Compound},
	{"addresses", datagen.Addresses},
}

var goldenDiscoveryModes = []struct {
	name string
	mode discovery.Mode
}{
	{"auto", discovery.ModeAuto},
	{"tokens", discovery.ModeTokens},
	{"ngrams", discovery.ModeNGrams},
}

func TestGoldenDiscovery(t *testing.T) {
	for _, fam := range goldenDiscoveryFamilies {
		for _, seed := range []int64{2019, 7919} {
			name := fmt.Sprintf("discovery_%s_%d", fam.name, seed)
			t.Run(name, func(t *testing.T) {
				ds := fam.gen(goldenDiscoveryRows, goldenDiscoveryErrRate, seed)
				var b strings.Builder
				fmt.Fprintf(&b, "# golden: %s (%d rows, err %.2f)\n", name, goldenDiscoveryRows, goldenDiscoveryErrRate)
				for _, m := range goldenDiscoveryModes {
					for _, clean := range []bool{false, true} {
						cfg := discovery.Default()
						cfg.Mode = m.mode
						cfg.CleanDMVs = clean
						res, err := discovery.Discover(context.Background(), ds.Table, nil, cfg)
						if err != nil {
							t.Fatalf("mode %s clean %v: %v", m.name, clean, err)
						}
						fmt.Fprintf(&b, "\n## mode=%s clean_dmvs=%v\n", m.name, clean)
						renderDiscoveryResult(&b, res)
					}
				}
				got := b.String()
				path := filepath.Join("testdata", "golden", name+".golden")
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("output differs from %s (rerun with -update if intended):\n%s",
						path, diffLines(string(want), got))
				}
			})
		}
	}
}

// renderDiscoveryResult writes the canonical text form of one run. Floats
// are printed with %v (shortest round-trip form), so any change in the
// computed coverage shows.
func renderDiscoveryResult(b *strings.Builder, res *discovery.Result) {
	fmt.Fprintf(b, "### stats (%d candidate(s))\n", len(res.Stats))
	for _, s := range res.Stats {
		fmt.Fprintf(b, "%s [%s -> %s] entries=%d accepted=%d coverage=%v kept=%v\n",
			s.Candidate, s.Candidate.LHSType, s.Candidate.RHSType,
			s.Entries, s.Accepted, s.Coverage, s.Kept)
	}
	fmt.Fprintf(b, "### pfds (%d)\n", len(res.PFDs))
	for _, p := range res.PFDs {
		fmt.Fprintf(b, "%s: %s -> %s coverage=%v source=%s rows=%d\n",
			p.Table, p.LHS, p.RHS, p.Coverage, p.Source, p.Tableau.Len())
		for _, row := range p.Tableau.Rows() {
			fmt.Fprintf(b, "  %s [support %d position %d]\n", row, row.Support, row.Position)
		}
	}
}
