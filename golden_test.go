package anmat_test

// Golden end-to-end corpus: the paper's headline scenarios (phone→state,
// zip→city, zip→state, name→gender) run discovery → detection → repairs
// against small committed CSVs, and the exact rendered output — tableaux,
// violation list, repair suggestions — is diffed against a pinned golden
// file. Regenerate with:
//
//	go test -run TestGoldenCorpus -update
//
// The test also asserts the acceptance criterion of the parallel engine:
// Detect output is byte-identical to the sequential path at
// parallelism 1, 4, and 8.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	anmat "github.com/anmat/anmat"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

type goldenScenario struct {
	name     string // golden file stem
	csv      string // testdata CSV
	lhs, rhs string // the headline dependency to pin
	params   anmat.Params
}

func goldenScenarios() []goldenScenario {
	// The corpus is mined with a looser violation tolerance than the demo
	// default so rules survive the injected 3% error rate and the errors
	// themselves surface as violations.
	p := anmat.Params{MinCoverage: 0.05, AllowedViolations: 0.2}
	return []goldenScenario{
		{name: "phone_state", csv: "phone_state.csv", lhs: "phone", rhs: "state", params: p},
		{name: "zip_city", csv: "zip.csv", lhs: "zip", rhs: "city", params: p},
		{name: "zip_state", csv: "zip.csv", lhs: "zip", rhs: "state", params: p},
		{name: "name_gender", csv: "name_gender.csv", lhs: "full_name", rhs: "gender", params: p},
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			tbl, err := anmat.LoadCSV(filepath.Join("testdata", sc.csv))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := anmat.New(anmat.WithParams(sc.params))
			if err != nil {
				t.Fatal(err)
			}
			sess := sys.NewSession("golden", tbl, sc.params)
			ctx := context.Background()
			if err := sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
				t.Fatal(err)
			}
			var rules []*anmat.PFD
			for _, p := range sess.Discovered {
				if p.LHS == sc.lhs && p.RHS == sc.rhs {
					rules = append(rules, p)
				}
			}
			if len(rules) == 0 {
				t.Fatalf("discovery found no %s→%s rule among %d PFDs", sc.lhs, sc.rhs, len(sess.Discovered))
			}

			// Parallel engine byte-identity on the corpus.
			res1, err := anmat.Detect(ctx, tbl, rules, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res1.Violations)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{4, 8} {
				res, err := anmat.Detect(ctx, tbl, rules, par)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got, err := json.Marshal(res.Violations)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("parallelism %d: detection output not byte-identical to sequential", par)
				}
			}

			repairs, err := anmat.SuggestRepairs(ctx, tbl, rules, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res1.Violations) == 0 || len(repairs) == 0 {
				t.Fatalf("scenario must be non-trivial: %d violations, %d repairs",
					len(res1.Violations), len(repairs))
			}

			got := renderGolden(sc, rules, res1.Violations, repairs)
			path := filepath.Join("testdata", "golden", sc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantB, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(wantB) {
				t.Errorf("output differs from %s (rerun with -update if intended):\n%s",
					path, diffLines(string(wantB), got))
			}
		})
	}
}

// renderGolden produces the canonical, fully deterministic text form of
// one scenario's pipeline products.
func renderGolden(sc goldenScenario, rules []*anmat.PFD, vs []anmat.Violation, rs []anmat.Repair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# golden: %s (%s -> %s)\n", sc.name, sc.lhs, sc.rhs)
	fmt.Fprintf(&b, "\n## tableaux (%d rule(s))\n", len(rules))
	for _, p := range rules {
		fmt.Fprintf(&b, "%s -> %s coverage=%.4f source=%s\n", p.LHS, p.RHS, p.Coverage, p.Source)
		for _, row := range p.Tableau.Rows() {
			fmt.Fprintf(&b, "  %s [support %d]\n", row, row.Support)
		}
	}
	fmt.Fprintf(&b, "\n## violations (%d)\n", len(vs))
	for _, v := range vs {
		cells := make([]string, len(v.Cells))
		for i, c := range v.Cells {
			cells[i] = c.String()
		}
		fmt.Fprintf(&b, "%s | cells %s | observed %q expected %q\n",
			v.Row, strings.Join(cells, " "), v.Observed, v.Expected)
	}
	fmt.Fprintf(&b, "\n## repairs (%d)\n", len(rs))
	for _, r := range rs {
		fmt.Fprintf(&b, "%s: %q -> %q (confidence %.4f) rule %s\n",
			r.Cell, r.Current, r.Suggested, r.Confidence, r.Rule)
	}
	return b.String()
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
