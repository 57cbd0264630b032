// Package experiments regenerates the paper's evaluation artifacts: the
// four Table 3 blocks, the parameter-setting trade-off of Section 4, the
// complexity ablations of Section 3, and the PFD-vs-FD baseline
// comparison of Section 1. Each experiment returns a printable report;
// `anmat experiments` prints them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/eval"
	"github.com/anmat/anmat/internal/fd"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// Seed is the fixed seed all experiments use; results are deterministic.
const Seed = 2019

// Table3Row is one line of a Table 3 block: a discovered rule plus an
// example error it detected.
type Table3Row struct {
	Rule         string
	ExampleError string
}

// Table3Report is one block of Table 3.
type Table3Report struct {
	Name       string // e.g. "D1 Phone Number → State"
	Rows       []Table3Row
	Discovered int // total tableau rows discovered
	Violations int
	Injected   int
	Recall     float64
	Precision  float64
}

// Fprint renders the block like the paper's table.
func (r Table3Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== Table 3 block: %s ===\n", r.Name)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-40s %s\n", row.Rule, row.ExampleError)
	}
	fmt.Fprintf(w, "  rules=%d violations=%d injected=%d recall=%.2f precision=%.2f\n",
		r.Discovered, r.Violations, r.Injected, r.Recall, r.Precision)
}

// runTable3 mines PFDs on a generated dataset, detects violations with
// them, scores against ground truth, and extracts example rows.
func runTable3(name string, ds *datagen.Dataset, lhs, rhs string, wantRules []string) (Table3Report, error) {
	rep := Table3Report{Name: name, Injected: 0}
	cfg := discovery.Default()
	res, err := discovery.Discover(context.TODO(), ds.Table, nil, cfg)
	if err != nil {
		return rep, err
	}
	var target *pfd.PFD
	for _, p := range res.PFDs {
		if p.LHS == lhs && p.RHS == rhs {
			target = p
			break
		}
	}
	if target == nil {
		return rep, fmt.Errorf("experiment %s: no %s→%s PFD discovered", name, lhs, rhs)
	}
	rep.Discovered = target.Tableau.Len()

	det := detect.New(ds.Table, detect.Options{})
	vs, err := det.Detect(target)
	if err != nil {
		return rep, err
	}
	rep.Violations = len(vs)

	// Score on identified offenders: repair suggestions name the exact
	// cell believed erroneous (constant rules: the mismatching RHS;
	// variable rules: the block minority), which is what the GUI surfaces
	// as "errors".
	repairs, err := det.Repairs(target)
	if err != nil {
		return rep, err
	}
	flagged := map[int]bool{}
	for _, r := range repairs {
		flagged[r.Cell.Row] = true
	}
	injRows := map[int]bool{}
	for _, e := range ds.Injected {
		if e.Cell.Column == rhs {
			injRows[e.Cell.Row] = true
		}
	}
	m := eval.Score(flagged, injRows)
	rep.Injected = m.Injected
	rep.Recall = m.Recall
	rep.Precision = m.Precision

	// Example rows: for each wanted rule fragment pick the matching
	// tableau row and one violation it produced.
	li, _ := ds.Table.ColIndex(lhs)
	ri, _ := ds.Table.ColIndex(rhs)
	for _, frag := range wantRules {
		for _, row := range target.Tableau.Rows() {
			if !strings.Contains(row.String(), frag) {
				continue
			}
			ex := ""
			for _, v := range vs {
				if v.Row == row.String() {
					tu := v.Tuples[len(v.Tuples)-1]
					ex = fmt.Sprintf("%s | %s", ds.Table.Cell(tu, li), ds.Table.Cell(tu, ri))
					break
				}
			}
			rep.Rows = append(rep.Rows, Table3Row{Rule: row.String(), ExampleError: ex})
			break
		}
	}
	return rep, nil
}

// Table3D1 reproduces the D1 block (Phone Number → State).
func Table3D1(n int) (Table3Report, error) {
	ds := datagen.PhoneState(n, 0.005, Seed)
	return runTable3("D1 Phone Number → State", ds, "phone", "state",
		[]string{"850", "607", "404", "217", "860"})
}

// Table3D2 reproduces the D2 block (Full Name → Gender).
func Table3D2(n int) (Table3Report, error) {
	ds := datagen.NameGender(n, 0.005, Seed)
	return runTable3("D2 Full Name → Gender", ds, "full_name", "gender",
		[]string{"Donald", "Stacey", "David", "Jerry", "Alan"})
}

// Table3D5City reproduces the D5 ZIP → CITY block.
func Table3D5City(n int) (Table3Report, error) {
	ds := datagen.ZipCity(n, 0.01, Seed)
	return runTable3("D5 ZIP → CITY", ds, "zip", "city",
		[]string{"Chicago", "Los Angeles"})
}

// Table3D5State reproduces the D5 ZIP → STATE block.
func Table3D5State(n int) (Table3Report, error) {
	ds := datagen.ZipCity(n, 0.01, Seed)
	return runTable3("D5 ZIP → STATE", ds, "zip", "state",
		[]string{"IL", "CA"})
}

// Table3Chembl runs the discovery/detection pipeline on the ChEMBL-like
// compound dataset (the demo's second public data source): CHEMBL-prefixed
// ids whose numeric band determines the molecule type.
func Table3Chembl(n int) (Table3Report, error) {
	ds := datagen.Compound(n, 0.005, Seed)
	return runTable3("ChEMBL compound_id → molecule_type", ds, "compound_id", "molecule_type",
		[]string{"CHEMBL3", "CHEMBL4", "CHEMBL5"})
}

// SweepPoint is one point of the parameter sweep.
type SweepPoint struct {
	Param      float64
	PFDs       int
	Rules      int
	Violations int
	Precision  float64
	Recall     float64
}

// SweepReport is the Section 4 trade-off: how γ (coverage) and ρ (allowed
// violations) control the number of dependencies and the false-positive
// rate.
type SweepReport struct {
	Name   string
	Points []SweepPoint
}

// Fprint renders the sweep.
func (r SweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== Parameter sweep: %s ===\n", r.Name)
	fmt.Fprintf(w, "  %-8s %6s %6s %10s %9s %7s\n", "param", "pfds", "rules", "violations", "precision", "recall")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-8.3f %6d %6d %10d %9.2f %7.2f\n",
			p.Param, p.PFDs, p.Rules, p.Violations, p.Precision, p.Recall)
	}
}

func sweepEval(ds *datagen.Dataset, cfg discovery.Config, rhsCols map[string]bool) (SweepPoint, error) {
	var pt SweepPoint
	res, err := discovery.Discover(context.TODO(), ds.Table, nil, cfg)
	if err != nil {
		return pt, err
	}
	pt.PFDs = len(res.PFDs)
	d := detect.New(ds.Table, detect.Options{})
	flagged := map[int]bool{}
	for _, p := range res.PFDs {
		pt.Rules += p.Tableau.Len()
		if !rhsCols[p.RHS] {
			continue
		}
		vs, err := d.Detect(p)
		if err != nil {
			return pt, err
		}
		pt.Violations += len(vs)
		repairs, err := d.Repairs(p)
		if err != nil {
			return pt, err
		}
		for _, r := range repairs {
			flagged[r.Cell.Row] = true
		}
	}
	inj := map[int]bool{}
	for _, e := range ds.Injected {
		inj[e.Cell.Row] = true
	}
	m := eval.Score(flagged, inj)
	pt.Recall = m.Recall
	pt.Precision = m.Precision
	return pt, nil
}

// SweepCoverage varies γ on the zip workload, which has several candidate
// dependencies of different coverage (zip→city ≈ 1.0, city→state and
// state→city well below 1.0), so raising γ visibly prunes dependencies —
// the Section 4 trade-off.
func SweepCoverage(n int, gammas []float64) (SweepReport, error) {
	rep := SweepReport{Name: "minimum coverage γ (zip table)"}
	ds := datagen.ZipCity(n, 0.01, Seed)
	for _, g := range gammas {
		cfg := discovery.Default()
		cfg.MinCoverage = g
		pt, err := sweepEval(ds, cfg, map[string]bool{"city": true, "state": true})
		if err != nil {
			return rep, err
		}
		pt.Param = g
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// SweepViolations varies ρ on the phone→state workload.
func SweepViolations(n int, rhos []float64) (SweepReport, error) {
	rep := SweepReport{Name: "allowed violation ratio ρ (phone→state)"}
	ds := datagen.PhoneState(n, 0.02, Seed)
	for _, rho := range rhos {
		cfg := discovery.Default()
		cfg.MaxViolationRatio = rho
		pt, err := sweepEval(ds, cfg, map[string]bool{"state": true})
		if err != nil {
			return rep, err
		}
		pt.Param = rho
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// AblationPoint is one timing measurement.
type AblationPoint struct {
	Rows      int
	Optimized time.Duration
	Naive     time.Duration
	Speedup   float64
}

// AblationReport compares an optimized and a naive engine across sizes.
type AblationReport struct {
	Name   string
	Points []AblationPoint
}

// Fprint renders the ablation table.
func (r AblationReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== Ablation: %s ===\n", r.Name)
	fmt.Fprintf(w, "  %-8s %14s %14s %8s\n", "rows", "optimized", "naive", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-8d %14s %14s %7.1fx\n", p.Rows, p.Optimized, p.Naive, p.Speedup)
	}
}

// groundTruthPhonePFD builds the constant tableau the generator implies.
func groundTruthPhonePFD(t *table.Table) *pfd.PFD {
	res, err := discovery.Discover(context.TODO(), t, nil, discovery.Default())
	if err != nil {
		return nil
	}
	for _, p := range res.PFDs {
		if p.LHS == "phone" && p.RHS == "state" {
			return p
		}
	}
	return nil
}

// AblationIndex measures constant-rule detection with and without the
// pattern index (Section 3: "for better performance, we create an index
// supporting regular expressions for each column present on the LHS").
func AblationIndex(sizes []int) (AblationReport, error) {
	rep := AblationReport{Name: "constant rules — pattern index vs full scan"}
	for _, n := range sizes {
		ds := datagen.PhoneState(n, 0.005, Seed)
		p := groundTruthPhonePFD(ds.Table)
		if p == nil {
			return rep, fmt.Errorf("no phone→state PFD at n=%d", n)
		}
		constOnly := constantOnly(p)
		opt, err := timeDetect(ds.Table, constOnly, detect.Options{})
		if err != nil {
			return rep, err
		}
		naive, err := timeDetect(ds.Table, constOnly, detect.Options{DisableIndex: true})
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, point(n, opt, naive))
	}
	return rep, nil
}

// AblationBlocking measures variable-rule detection with blocking vs the
// quadratic pair check.
func AblationBlocking(sizes []int) (AblationReport, error) {
	rep := AblationReport{Name: "variable rules — blocking vs quadratic pairs"}
	for _, n := range sizes {
		ds := datagen.ZipCity(n, 0.01, Seed)
		p := variableZipPFD()
		opt, err := timeDetect(ds.Table, p, detect.Options{})
		if err != nil {
			return rep, err
		}
		naive, err := timeDetect(ds.Table, p, detect.Options{DisableBlocking: true, DisableIndex: true})
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, point(n, opt, naive))
	}
	return rep, nil
}

// constantOnly strips variable rows from a PFD so the index ablation
// times only the constant-rule path.
func constantOnly(p *pfd.PFD) *pfd.PFD {
	tp := tableau.New(p.Tableau.ConstantRows()...)
	out := pfd.New(p.Table, p.LHS, p.RHS, tp)
	out.Coverage = p.Coverage
	out.Source = p.Source
	return out
}

func variableZipPFD() *pfd.PFD {
	// λ5-style: 4-digit prefix determines the city.
	q := pattern.MustParseConstrained(`<\D{4}>\D`)
	tp := tableau.New(tableau.Row{LHS: q, RHS: tableau.Wildcard})
	return pfd.New("d5_zip", "zip", "city", tp)
}

func timeDetect(t *table.Table, p *pfd.PFD, opts detect.Options) (time.Duration, error) {
	start := time.Now()
	_, err := detect.New(t, opts).Detect(p)
	return time.Since(start), err
}

func point(n int, opt, naive time.Duration) AblationPoint {
	sp := 0.0
	if opt > 0 {
		sp = float64(naive) / float64(opt)
	}
	return AblationPoint{Rows: n, Optimized: opt, Naive: naive, Speedup: sp}
}

// BaselineReport compares error detection by PFDs against whole-value FDs
// (the Section 1 claim: errors "cannot be captured by existing
// approaches").
type BaselineReport struct {
	Dataset      string
	Injected     int
	PFDCaught    int
	FDCaught     int
	PFDOnlyRows  int // injected rows only PFDs caught
	FDHoldsDirty bool
}

// Fprint renders the comparison.
func (r BaselineReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== Baseline: PFD vs FD on %s ===\n", r.Dataset)
	fmt.Fprintf(w, "  injected=%d pfd_caught=%d fd_caught=%d pfd_only=%d fd_holds_on_dirty=%v\n",
		r.Injected, r.PFDCaught, r.FDCaught, r.PFDOnlyRows, r.FDHoldsDirty)
}

// BaselinePhone runs the comparison on the phone→state workload, where
// nearly every phone number is unique so whole-value FDs see nothing.
func BaselinePhone(n int) (BaselineReport, error) {
	ds := datagen.PhoneState(n, 0.005, Seed)
	rep := BaselineReport{Dataset: "phone→state"}
	inj := ds.InjectedRows()
	rep.Injected = len(inj)

	p := groundTruthPhonePFD(ds.Table)
	if p == nil {
		return rep, fmt.Errorf("no PFD discovered")
	}
	vs, err := detect.New(ds.Table, detect.Options{}).Detect(p)
	if err != nil {
		return rep, err
	}
	pfdRows := map[int]bool{}
	for _, v := range vs {
		for _, tu := range v.Tuples {
			if inj[tu] {
				pfdRows[tu] = true
			}
		}
	}
	rep.PFDCaught = len(pfdRows)

	fvs, err := fd.Check(ds.Table, fd.FD{LHS: "phone", RHS: "state"})
	if err != nil {
		return rep, err
	}
	fdRows := map[int]bool{}
	for r := range fd.ViolatingRows(fvs) {
		if inj[r] {
			fdRows[r] = true
		}
	}
	rep.FDCaught = len(fdRows)
	for r := range pfdRows {
		if !fdRows[r] {
			rep.PFDOnlyRows++
		}
	}
	fds := fd.Discover(ds.Table, 0)
	for _, f := range fds {
		if f.LHS == "phone" && f.RHS == "state" {
			rep.FDHoldsDirty = true
		}
	}
	return rep, nil
}

// DecisionReport compares decision functions f (Figure 2's pluggable
// rule-acceptance test) on the same dirty workload.
type DecisionReport struct {
	Rows []DecisionRow
}

// DecisionRow is one decision function's outcome.
type DecisionRow struct {
	Name      string
	Rules     int
	Recall    float64
	Precision float64
}

// Fprint renders the comparison.
func (r DecisionReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "=== Decision-function ablation (phone→state, 2% injected errors) ===")
	fmt.Fprintf(w, "  %-22s %6s %7s %9s\n", "f", "rules", "recall", "precision")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-22s %6d %7.2f %9.2f\n", row.Name, row.Rules, row.Recall, row.Precision)
	}
}

// DecisionAblation runs discovery+detection under three decision
// functions: the default raw-confidence threshold, the Wilson lower
// bound, and the lift test against RHS base rates.
func DecisionAblation(n int) (DecisionReport, error) {
	var rep DecisionReport
	ds := datagen.PhoneState(n, 0.02, Seed)
	states, err := ds.Table.Column("state")
	if err != nil {
		return rep, err
	}
	base := discovery.RHSBaseRates(states)
	def := discovery.Default()
	variants := []struct {
		name string
		f    discovery.DecisionFunc
	}{
		{"raw confidence", nil}, // nil = Config default
		{"wilson(0.95)", discovery.WilsonDecision(def.MinSupport, 0.95, 1.96)},
		{"lift(0.95, 2x)", discovery.LiftDecision(def.MinSupport, 0.95, 2, base)},
	}
	inj := map[int]bool{}
	for _, e := range ds.Injected {
		inj[e.Cell.Row] = true
	}
	for _, v := range variants {
		cfg := discovery.Default()
		cfg.MaxViolationRatio = 0.05
		cfg.Decision = v.f
		res, err := discovery.Discover(context.TODO(), ds.Table, nil, cfg)
		if err != nil {
			return rep, err
		}
		row := DecisionRow{Name: v.name}
		det := detect.New(ds.Table, detect.Options{})
		flagged := map[int]bool{}
		for _, p := range res.PFDs {
			if p.RHS != "state" {
				continue
			}
			row.Rules += p.Tableau.Len()
			rs, err := det.Repairs(p)
			if err != nil {
				return rep, err
			}
			for _, r := range rs {
				flagged[r.Cell.Row] = true
			}
		}
		m := eval.Score(flagged, inj)
		row.Recall, row.Precision = m.Recall, m.Precision
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// ScalePoint is one point of the discovery scaling figure.
type ScalePoint struct {
	Rows     int
	Tokens   time.Duration
	NGrams   time.Duration
	PFDCount int
}

// ScaleReport measures Figure 2's algorithm cost in token and n-gram
// modes across input sizes.
type ScaleReport struct {
	Points []ScalePoint
}

// Fprint renders the scaling table.
func (r ScaleReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "=== Discovery scaling (Figure 2 algorithm) ===")
	fmt.Fprintf(w, "  %-8s %14s %14s %6s\n", "rows", "token mode", "ngram mode", "pfds")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-8d %14s %14s %6d\n", p.Rows, p.Tokens, p.NGrams, p.PFDCount)
	}
}

// ScaleDiscovery runs discovery at several sizes on the name→gender
// workload (token mode natural) and forces both modes.
func ScaleDiscovery(sizes []int) (ScaleReport, error) {
	var rep ScaleReport
	for _, n := range sizes {
		ds := datagen.NameGender(n, 0.005, Seed)
		cfgT := discovery.Default()
		cfgT.Mode = discovery.ModeTokens
		start := time.Now()
		resT, err := discovery.Discover(context.TODO(), ds.Table, nil, cfgT)
		if err != nil {
			return rep, err
		}
		dT := time.Since(start)
		cfgN := discovery.Default()
		cfgN.Mode = discovery.ModeNGrams
		start = time.Now()
		if _, err := discovery.Discover(context.TODO(), ds.Table, nil, cfgN); err != nil {
			return rep, err
		}
		dN := time.Since(start)
		rep.Points = append(rep.Points, ScalePoint{
			Rows: n, Tokens: dT, NGrams: dN, PFDCount: len(resT.PFDs),
		})
	}
	return rep, nil
}

// Names lists the experiment ids runnable via Run.
func Names() []string {
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

type runner func(w io.Writer, n int) error

var registry = map[string]runner{
	"table3-d1": func(w io.Writer, n int) error {
		r, err := Table3D1(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"table3-d2": func(w io.Writer, n int) error {
		r, err := Table3D2(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"table3-d5city": func(w io.Writer, n int) error {
		r, err := Table3D5City(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"table3-d5state": func(w io.Writer, n int) error {
		r, err := Table3D5State(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"chembl": func(w io.Writer, n int) error {
		r, err := Table3Chembl(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"param-sweep": func(w io.Writer, n int) error {
		cov, err := SweepCoverage(n, []float64{0.01, 0.05, 0.2, 0.5, 0.7, 0.99})
		if err != nil {
			return err
		}
		cov.Fprint(w)
		rho, err := SweepViolations(n, []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2})
		if err != nil {
			return err
		}
		rho.Fprint(w)
		return nil
	},
	"ablation": func(w io.Writer, n int) error {
		sizes := []int{n / 10, n / 4, n}
		idx, err := AblationIndex(sizes)
		if err != nil {
			return err
		}
		idx.Fprint(w)
		blk, err := AblationBlocking(sizes)
		if err != nil {
			return err
		}
		blk.Fprint(w)
		return nil
	},
	"decision-ablation": func(w io.Writer, n int) error {
		r, err := DecisionAblation(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"baseline": func(w io.Writer, n int) error {
		r, err := BaselinePhone(n)
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
	"scaling": func(w io.Writer, n int) error {
		r, err := ScaleDiscovery([]int{n / 10, n / 4, n})
		if err != nil {
			return err
		}
		r.Fprint(w)
		return nil
	},
}

// Run executes one experiment by id at problem size n, writing its report.
func Run(w io.Writer, id string, n int) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(Names(), ", "))
	}
	return r(w, n)
}

// RunAll executes every experiment in sorted order.
func RunAll(w io.Writer, n int) error {
	for _, id := range Names() {
		if err := Run(w, id, n); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
