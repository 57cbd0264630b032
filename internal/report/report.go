// Package report renders a full pipeline run as a Markdown document — the
// stand-in for the demo's Jupyter-notebook interface: the same profiling,
// discovery, detection and repair content a notebook session would show,
// as a shareable artifact.
package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/anmat/anmat/internal/classify"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/profile"
)

// The report's listing caps.
const (
	maxPatternsPerColumn = 5  // the Figure 3 listing
	maxRowsPerTableau    = 15 // tableau rows shown per PFD
	maxViolations        = 50
	maxRepairs           = 50
)

// Write renders the session to w. The session should have been Run (or
// have had the individual stages executed).
func Write(w io.Writer, se *core.Session) error {
	bw := &errWriter{w: w}

	bw.printf("# ANMAT report — %s\n\n", se.Table.Name())
	bw.printf("Project: **%s** · %d rows · %d columns\n\n",
		se.Project, se.Table.NumRows(), se.Table.NumCols())
	bw.printf("Parameters: minimum coverage γ = %.3f, allowed violations ρ = %.3f\n\n",
		se.Params.MinCoverage, se.Params.AllowedViolations)

	bw.printf("## 1. Profile (patterns in the data)\n\n")
	bw.printf("| column | type | distinct | top patterns (pattern::position, frequency) |\n")
	bw.printf("|---|---|---|---|\n")
	for i, cp := range se.Profile.Columns {
		pats := profile.ColumnPatterns(se.Table.InternedColumn(i))
		var cell []string
		for j, ps := range pats {
			if j >= maxPatternsPerColumn {
				cell = append(cell, "…")
				break
			}
			cell = append(cell, fmt.Sprintf("`%s`::%d, %d", ps.Pattern, ps.Position, ps.Frequency))
		}
		bw.printf("| %s | %s | %d | %s |\n", cp.Name, cp.Type, cp.Distinct, strings.Join(cell, "<br>"))
	}
	bw.printf("\n")

	bw.printf("## 2. Discovered PFDs\n\n")
	if len(se.Discovered) == 0 {
		bw.printf("No PFDs met the thresholds.\n\n")
	}
	for _, p := range se.Discovered {
		bw.printf("### %s → %s (coverage %.1f%%)\n\n", p.LHS, p.RHS, p.Coverage*100)
		bw.printf("| pattern | RHS | support |\n|---|---|---|\n")
		for i, row := range p.Tableau.Rows() {
			if i >= maxRowsPerTableau {
				bw.printf("| … | | |\n")
				break
			}
			bw.printf("| `%s` | %s | %d |\n", row.LHS.String(), row.RHS, row.Support)
		}
		bw.printf("\n")
	}

	bw.printf("## 3. Violations (%d)\n\n", len(se.Violations))
	if len(se.Violations) > 0 {
		bw.printf("| rule | cells | observed | expected |\n|---|---|---|---|\n")
		for i, v := range se.Violations {
			if i >= maxViolations {
				bw.printf("| … %d more | | | |\n", len(se.Violations)-maxViolations)
				break
			}
			cells := make([]string, len(v.Cells))
			for j, c := range v.Cells {
				cells[j] = c.String()
			}
			bw.printf("| `%s` | %s | %s | %s |\n",
				v.Row, strings.Join(cells, " "), v.Observed, v.Expected)
		}
		bw.printf("\n")
	}

	bw.printf("## 4. Suggested repairs (%d)\n\n", len(se.Repairs))
	if len(se.Repairs) > 0 {
		// Error triage: classify each repair's observed→suggested pair so
		// a reviewer can batch-validate by kind (typos and case slips are
		// near-certain; swaps deserve a look).
		pairs := make([][2]string, len(se.Repairs))
		for i, r := range se.Repairs {
			pairs[i] = [2]string{r.Current, r.Suggested}
		}
		sum := classify.Summarize(pairs)
		bw.printf("Error triage: ")
		first := true
		for _, k := range []classify.Kind{classify.Typo, classify.Truncation, classify.CaseSlip, classify.Swap} {
			if n := sum.Counts[k]; n > 0 {
				if !first {
					bw.printf(", ")
				}
				bw.printf("%d %s", n, k)
				first = false
			}
		}
		bw.printf("\n\n")

		bw.printf("| cell | current | suggested | kind | confidence | rule |\n|---|---|---|---|---|---|\n")
		for i, r := range se.Repairs {
			if i >= maxRepairs {
				bw.printf("| … %d more | | | | | |\n", len(se.Repairs)-maxRepairs)
				break
			}
			bw.printf("| %s | %s | %s | %s | %.2f | `%s` |\n",
				r.Cell.String(), r.Current, r.Suggested,
				classify.Classify(r.Current, r.Suggested), r.Confidence, r.Rule)
		}
		bw.printf("\n")
	}
	return bw.err
}

// errWriter folds the repetitive error handling of sequential writes.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
