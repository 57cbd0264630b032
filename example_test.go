package anmat_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"

	anmat "github.com/anmat/anmat"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/fd"
)

// check stops an example on an unexpected error.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// cell reads one cell by column name.
func cell(t *anmat.Table, row int, col string) string {
	v, err := t.CellByName(row, col)
	check(err)
	return v
}

// zipTable is the paper's Table 2 (D2): the Zip table, with s4[city]
// wrong (ground truth Los Angeles).
func zipTable() *anmat.Table {
	t, err := anmat.NewTable("Zip", []string{"zip", "city"})
	check(err)
	for _, r := range [][]string{
		{"90001", "Los Angeles"}, {"90002", "Los Angeles"},
		{"90003", "Los Angeles"}, {"90005", "Los Angeles"},
		{"90006", "Los Angeles"},
		{"90004", "New York"}, // the erroneous s4
	} {
		check(t.Append(r))
	}
	return t
}

// tinyConfig is a discovery configuration generous enough for the
// six-row zip table: a low coverage bar, and tolerance for its one dirty
// record.
func tinyConfig() anmat.DiscoveryConfig {
	cfg := anmat.DefaultDiscoveryConfig()
	cfg.MinCoverage = 0.3
	cfg.MaxViolationRatio = 0.25
	cfg.MineVariable = false
	return cfg
}

// ExampleDiscover mines the paper's λ3-style rule from a small dirty zip
// table and detects the seeded error.
func ExampleDiscover() {
	ctx := context.Background()
	t := zipTable()
	pfds, err := anmat.Discover(ctx, t, tinyConfig())
	check(err)
	for _, p := range pfds {
		for _, row := range p.Tableau.Rows() {
			fmt.Println(row.String())
		}
	}
	res, err := anmat.Detect(ctx, t, pfds, 0)
	check(err)
	for _, v := range res.Violations {
		fmt.Printf("violation at row %d: observed %q, expected %q\n",
			v.Tuples[0], v.Observed, v.Expected)
	}
	// Output:
	// <9000>\D → Los Angeles
	// violation at row 5: observed "New York", expected "Los Angeles"
}

// ExampleSuggestRepairs completes the loop: the violation's cell is
// repaired to the rule's constant.
func ExampleSuggestRepairs() {
	ctx := context.Background()
	t := zipTable()
	pfds, err := anmat.Discover(ctx, t, tinyConfig())
	check(err)
	rs, err := anmat.SuggestRepairs(ctx, t, pfds, 0)
	check(err)
	n, err := anmat.ApplyRepairs(t, rs)
	check(err)
	fmt.Printf("repaired %d cell(s)\n", n)
	fmt.Println(cell(t, 5, "city"))
	// Output:
	// repaired 1 cell(s)
	// Los Angeles
}

// Example_quickstart reproduces the paper's running example (Tables 1
// and 2): it discovers PFDs from the dirty Name and Zip tables, and the
// errors r4[gender] and s4[city] are detected with suggested
// corrections.
func Example_quickstart() {
	// Table 1 (D1): the Name table, r4[gender] is wrong (should be F).
	// Extra John/Susan rows give discovery enough support per first name.
	name, err := anmat.NewTable("Name", []string{"name", "gender"})
	check(err)
	for _, r := range [][]string{
		{"John Charles", "M"}, {"John Bosco", "M"}, {"John Smith", "M"},
		{"John Wayne", "M"}, {"John Cleese", "M"},
		{"Susan Orlean", "F"}, {"Susan Sontag", "F"}, {"Susan Sarandon", "F"},
		{"Susan Collins", "F"},
		{"Susan Boyle", "M"}, // r4: erroneous, ground truth F
	} {
		check(name.Append(r))
	}

	sys, err := anmat.New() // in-memory store
	check(err)
	sys.CreateProject("quickstart")
	// Generous parameters for the tiny tables: low coverage bar, tolerate
	// the single dirty record per rule (1 bad in ≤6 supporters ≈ 17%).
	params := anmat.Params{MinCoverage: 0.3, AllowedViolations: 0.25}
	for _, t := range []*anmat.Table{name, zipTable()} {
		fmt.Printf("==== dataset %s ====\n", t.Name())
		sess := sys.NewSession("quickstart", t, params)
		check(sess.Run(context.Background()))
		fmt.Println("discovered PFDs:")
		for _, p := range sess.Discovered {
			fmt.Printf("  %s → %s (coverage %.0f%%)\n", p.LHS, p.RHS, p.Coverage*100)
			for _, row := range p.Tableau.Rows() {
				fmt.Printf("    %s\n", row)
			}
		}
		fmt.Println("violations:")
		for _, v := range sess.Violations {
			fmt.Printf("  rule %-35s tuples %v observed %q\n", v.Row, v.Tuples, v.Observed)
		}
		fmt.Println("suggested repairs:")
		for _, r := range sess.Repairs {
			fmt.Printf("  row %d %s: %q → %q (confidence %.2f)\n",
				r.Cell.Row, r.Cell.Column, r.Current, r.Suggested, r.Confidence)
		}
	}
	// Output:
	// ==== dataset Name ====
	// discovered PFDs:
	//   name → gender (coverage 100%)
	//     <\LU\LL*\ >\A* → ⊥
	//     <John\ >\A* → M
	//     <Susan\ >\A* → F
	// violations:
	//   rule <\LU\LL*\ >\A* → ⊥                  tuples [5 9] observed "M"
	//   rule <Susan\ >\A* → F                    tuples [9] observed "M"
	// suggested repairs:
	//   row 9 gender: "M" → "F" (confidence 0.80)
	// ==== dataset Zip ====
	// discovered PFDs:
	//   zip → city (coverage 100%)
	//     <9000>\D → Los Angeles
	// violations:
	//   rule <9000>\D → Los Angeles              tuples [5] observed "New York"
	// suggested repairs:
	//   row 5 city: "New York" → "Los Angeles" (confidence 1.00)
}

// Example_phonestate reproduces the Table 3 D1 scenario: a synthetic
// NANP phone directory where the area code determines the state. ANMAT
// discovers the area-code rules (850→FL, 607→NY, …) from the dirty data
// and flags the injected wrong-state rows.
func Example_phonestate() {
	ds := datagen.PhoneState(20000, 0.005, 2019)
	fmt.Printf("generated %d phone/state rows with %d injected errors\n",
		ds.Table.NumRows(), len(ds.Injected))
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("d1", ds.Table, anmat.DefaultParams())
	check(sess.Run(context.Background()))

	for _, p := range sess.Discovered {
		if p.LHS != "phone" || p.RHS != "state" {
			continue
		}
		fmt.Printf("PFD %s → %s (coverage %.1f%%), tableau:\n", p.LHS, p.RHS, p.Coverage*100)
		for i, row := range p.Tableau.Rows() {
			if i >= 10 {
				fmt.Printf("  … %d more rows\n", p.Tableau.Len()-10)
				break
			}
			fmt.Printf("  %-30s [support %d]\n", row, row.Support)
		}
	}

	// Score against ground truth.
	flagged := map[int]bool{}
	for _, r := range sess.Repairs {
		flagged[r.Cell.Row] = true
	}
	injected := ds.InjectedRows()
	caught := 0
	for r := range injected {
		if flagged[r] {
			caught++
		}
	}
	fmt.Printf("violations: %d; identified error rows: %d\n", len(sess.Violations), len(flagged))
	fmt.Printf("recall: %d/%d injected errors caught\n", caught, len(injected))
	fmt.Println("sample detections (Table 3 style):")
	for _, v := range sess.Violations[:5] {
		tu := v.Tuples[len(v.Tuples)-1]
		fmt.Printf("  %-30s %s | %s\n", v.Row, cell(ds.Table, tu, "phone"), cell(ds.Table, tu, "state"))
	}
	// Output:
	// generated 20000 phone/state rows with 97 injected errors
	// PFD phone → state (coverage 100.0%), tableau:
	//   <\D{3}>\D{7} → ⊥               [support 20000]
	//   <415>\D{7} → CA                [support 1062]
	//   <702>\D{7} → NV                [support 1051]
	//   <503>\D{7} → OR                [support 1035]
	//   <312>\D{7} → IL                [support 1027]
	//   <404>\D{7} → GA                [support 1016]
	//   <512>\D{7} → TX                [support 1015]
	//   <213>\D{7} → CA                [support 1014]
	//   <615>\D{7} → TN                [support 1014]
	//   <504>\D{7} → LA                [support 1009]
	//   … 11 more rows
	// violations: 194; identified error rows: 97
	// recall: 97/97 injected errors caught
	// sample detections (Table 3 style):
	//   <\D{3}>\D{7} → ⊥               4156000154 | MN
	//   <\D{3}>\D{7} → ⊥               4155475823 | OH
	//   <\D{3}>\D{7} → ⊥               4150244966 | OR
	//   <\D{3}>\D{7} → ⊥               8600701520 | OK
	//   <\D{3}>\D{7} → ⊥               8600193553 | MO
}

// Example_zipcleaning reproduces the Table 3 D5 scenario end to end:
// ZIP → CITY and ZIP → STATE rules mined from a dirty zip table (typos
// like "Chicag", case slips like "lL", wrong states), violations
// detected, repairs applied, and the table checked afterwards.
func Example_zipcleaning() {
	ctx := context.Background()
	ds := datagen.ZipCity(20000, 0.01, 2019)
	fmt.Printf("generated %d zip rows with %d injected errors\n",
		ds.Table.NumRows(), len(ds.Injected))
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("d5", ds.Table, anmat.DefaultParams())
	check(sess.Run(ctx))

	for _, p := range sess.Discovered {
		fmt.Printf("PFD %s → %s (coverage %.1f%%), %d tableau row(s)\n",
			p.LHS, p.RHS, p.Coverage*100, p.Tableau.Len())
		for i, row := range p.Tableau.Rows() {
			if i >= 6 {
				fmt.Println("  …")
				break
			}
			fmt.Printf("  %s\n", row)
		}
	}

	fmt.Printf("%d violation(s); applying %d repair(s)\n", len(sess.Violations), len(sess.Repairs))
	n, err := anmat.ApplyRepairs(sess.Table, sess.Repairs)
	check(err)
	fmt.Printf("changed %d cell(s)\n", n)

	// How many ground-truth errors did the repair fix exactly?
	fixed := 0
	for _, e := range ds.Injected {
		if cell(ds.Table, e.Cell.Row, e.Cell.Column) == e.Clean {
			fixed++
		}
	}
	fmt.Printf("ground truth: %d/%d injected errors restored to the clean value\n", fixed, len(ds.Injected))

	// Re-run detection on the repaired table: violations drop.
	post, err := anmat.Detect(ctx, sess.Table, sess.Discovered, 0)
	check(err)
	fmt.Printf("violations after repair: %d (was %d)\n", len(post.Violations), len(sess.Violations))
	// Output:
	// generated 20000 zip rows with 410 injected errors
	// PFD zip → city (coverage 100.0%), 12 tableau row(s)
	//   <\D{4}>\D → ⊥
	//   <100>\D{2} → New York
	//   <021>\D{2} → Boston
	//   <900>\D{2} → Los Angeles
	//   <981>\D{2} → Seattle
	//   <30>\D0\D → Atlanta
	//   …
	// PFD zip → state (coverage 100.0%), 9 tableau row(s)
	//   <\D{2}>\D{3} → ⊥
	//   <606>\D{2} → IL
	//   <100>\D{2} → NY
	//   <021>\D{2} → MA
	//   <900>\D{2} → CA
	//   <981>\D{2} → WA
	//   …
	// PFD city → state (coverage 99.4%), 22 tableau row(s)
	//   <\A*\ >\A* → ⊥
	//   <New\ >\A* → NY
	//   \A*\ <York> → NY
	//   <Boston> → MA
	//   <Los\ >\A* → CA
	//   \A*\ <Angeles> → CA
	//   …
	// PFD state → city (coverage 59.2%), 10 tableau row(s)
	//   <N>\LU → New York
	//   <M>\LU → Boston
	//   <WA> → Seattle
	//   <T>\LU → Houston
	//   <GA> → Atlanta
	//   <gA> → Atlanta
	//   …
	// 1280 violation(s); applying 443 repair(s)
	// changed 443 cell(s)
	// ground truth: 410/410 injected errors restored to the clean value
	// violations after repair: 131 (was 1280)
}

// Example_employeeids reproduces the paper's introduction example:
// employee IDs like "F-9-107" where the letter determines the department
// (F → Finance) and the digit the grade. ANMAT mines these partial-value
// rules with n-grams/prefixes — rules no whole-value FD can express,
// because almost every ID is unique.
func Example_employeeids() {
	ds := datagen.EmployeeID(10000, 0.005, 2019)
	fmt.Printf("generated %d employee rows with %d injected errors\n",
		ds.Table.NumRows(), len(ds.Injected))
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("employees", ds.Table, anmat.DefaultParams())
	check(sess.Run(context.Background()))

	for _, p := range sess.Discovered {
		if p.LHS != "emp_id" {
			continue
		}
		fmt.Printf("PFD %s → %s (coverage %.1f%%):\n", p.LHS, p.RHS, p.Coverage*100)
		for i, row := range p.Tableau.Rows() {
			if i >= 10 {
				fmt.Println("  …")
				break
			}
			fmt.Printf("  %s\n", row)
		}
	}
	fmt.Printf("PFD violations: %d\n", len(sess.Violations))

	// The contrast the introduction draws: whole-value FDs cannot even see
	// the dependency, because emp_id is (nearly) a key.
	fdViolations := 0
	for _, f := range []fd.FD{
		{LHS: "emp_id", RHS: "department"},
		{LHS: "emp_id", RHS: "grade"},
	} {
		vs, err := fd.Check(ds.Table, f)
		check(err)
		fdViolations += len(vs)
	}
	fmt.Printf("whole-value FD violations on the same errors: %d\n", fdViolations)
	// Output:
	// generated 10000 employee rows with 92 injected errors
	// PFD emp_id → department (coverage 100.0%):
	//   <\LU>-\D-\D{3} → ⊥
	//   <H->\D-\D{3} → HR
	//   <F->\D-\D{3} → Finance
	//   <O->\D-\D{3} → Operations
	//   <M->\D-\D{3} → Marketing
	//   <R->\D-\D{3} → Research
	//   <E->\D-\D{3} → Engineering
	//   <L->\D-\D{3} → Legal
	//   <S->\D-\D{3} → Sales
	// PFD emp_id → grade (coverage 100.0%):
	//   <\LU-\D>-\D{3} → ⊥
	//   \A{1}<-9->\A* → G9
	//   \A{1}<-7->\A* → G7
	//   \A{1}<-4->\A* → G4
	//   \A{1}<-5->\A* → G5
	//   \A{1}<-2->\A* → G2
	//   \A{1}<-6->\A* → G6
	//   \A{1}<-8->\A* → G8
	//   \A{1}<-1->\A* → G1
	//   \A{1}<-3->\A* → G3
	// PFD violations: 184
	// whole-value FD violations on the same errors: 10
}

// Example_composite demonstrates multi-attribute dependencies (the
// paper's X → Y over attribute sets) via the derived-column reduction:
// neither the origin nor the destination region alone determines a
// shipment's zone, but the pair does. Table.Derive concatenates the two
// columns; the PFD engine then mines and enforces rules over the derived
// route key.
func Example_composite() {
	rng := rand.New(rand.NewSource(2019))
	regions := []string{"US", "EU", "AS"}
	zone := func(a, b string) string {
		switch {
		case a == b:
			return "domestic"
		case a == "AS" || b == "AS":
			return "long-haul"
		default:
			return "transatlantic"
		}
	}
	tbl, err := anmat.NewTable("shipping", []string{"origin", "dest", "zone"})
	check(err)
	var dirtyRows []int
	for i := 0; i < 6000; i++ {
		a := regions[rng.Intn(len(regions))]
		b := regions[rng.Intn(len(regions))]
		z := zone(a, b)
		if i%500 == 250 { // inject a wrong zone
			if z == "domestic" {
				z = "long-haul"
			} else {
				z = "domestic"
			}
			dirtyRows = append(dirtyRows, i)
		}
		check(tbl.Append([]string{a, fmt.Sprintf("%s%d", b, rng.Intn(10)), z}))
	}
	fmt.Printf("%d rows, %d injected wrong zones\n", tbl.NumRows(), len(dirtyRows))

	// The composite reduction: route = origin ++ dest.
	_, err = tbl.Derive("route", []string{"origin", "dest"}, ">")
	check(err)

	// Stage composition: mine everything, confirm only the composite
	// route → zone rule, then run detection and repair on just that rule.
	ctx := context.Background()
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("shipping", tbl, anmat.DefaultParams())
	check(sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery))
	for _, p := range sess.Discovered {
		if p.LHS != "route" || p.RHS != "zone" {
			continue
		}
		fmt.Printf("composite PFD %s → %s:\n", p.LHS, p.RHS)
		for i, row := range p.Tableau.Rows() {
			if i >= 8 {
				fmt.Println("  …")
				break
			}
			fmt.Printf("  %s\n", row)
		}
		sess.Confirm(p.ID())
	}
	check(sess.RunStages(ctx, anmat.StageDetection, anmat.StageRepairs))
	caught := map[int]bool{}
	for _, r := range sess.Repairs {
		caught[r.Cell.Row] = true
	}
	hits := 0
	for _, r := range dirtyRows {
		if caught[r] {
			hits++
		}
	}
	fmt.Printf("repairs identify %d rows; %d/%d injected zone errors caught\n",
		len(sess.Repairs), hits, len(dirtyRows))
	// Output:
	// 6000 rows, 12 injected wrong zones
	// composite PFD route → zone:
	//   <\LU{2}>\LU>\LU\D → ⊥
	//   <US>US>\D → domestic
	//   <US>AS>\D → long-haul
	//   <EU>US>\D → transatlantic
	//   <EU>AS>\D → long-haul
	//   <US>EU>\D → transatlantic
	//   <AS>EU>\D → long-haul
	//   <AS>US>\D → long-haul
	//   …
	// repairs identify 12 rows; 12/12 injected zone errors caught
}

// Example_streaming validates records on arrival: PFDs are mined from a
// trusted history batch (a ChEMBL-like compound registry), and new
// records are appended one by one through the session's incremental
// engine — wrong molecule types are flagged at ingestion time instead of
// in a nightly batch.
func Example_streaming() {
	ctx := context.Background()
	history := datagen.Compound(8000, 0, 2019)

	// Mine PFDs from history with a discovery-only session: profile and
	// discovery stages, no detection pass over the clean batch.
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("stream", history.Table, anmat.DefaultParams())
	check(sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery))
	var idType *anmat.PFD
	for _, p := range sess.Discovered {
		if p.LHS == "compound_id" && p.RHS == "molecule_type" {
			idType = p
		}
	}
	fmt.Printf("mined %s with %d rule(s); e.g.\n", idType.ID(), idType.Tableau.Len())
	for _, row := range idType.Tableau.Rows()[:4] {
		fmt.Printf("  %s\n", row)
	}

	// Check arrivals against that one rule.
	sess.UseRules([]*anmat.PFD{idType})
	seen := history.Table.NumRows()
	batch := datagen.Compound(2000, 0.02, 77)
	alerts := 0
	caught := map[int]bool{}
	for r := 0; r < batch.Table.NumRows(); r++ {
		diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{anmat.AppendRows(batch.Table.Row(r))})
		check(err)
		for _, v := range diff.Added {
			alerts++
			// A violation reports its later tuple as the observed one.
			tuple := v.Tuples[len(v.Tuples)-1]
			caught[tuple-seen] = true
			if alerts <= 5 {
				fmt.Printf("  ALERT row %d: %s typed %q, rule says %q (%s)\n",
					tuple-seen, cell(sess.Table, tuple, "compound_id"), v.Observed, v.Expected, v.Row)
			}
		}
	}
	hits := 0
	injected := batch.InjectedRows()
	for r := range injected {
		if caught[r] {
			hits++
		}
	}
	fmt.Printf("streamed %d rows: %d alerts, %d/%d injected errors caught at ingestion\n",
		batch.Table.NumRows(), alerts, hits, len(injected))
	// Output:
	// mined chembl_compounds:compound_id->molecule_type with 44 rule(s); e.g.
	//   <CHEMBL\D>\D{5} → ⊥
	//   <CHEMBL1>\D{5} → Small molecule
	//   <CHEMBL5>\D{5} → Oligonucleotide
	//   <CHEMBL6>\D{5} → Small molecule
	//   ALERT row 12: CHEMBL403549 typed "Small molecule", rule says "Antibody" (<CHEMBL\D>\D{5} → ⊥)
	//   ALERT row 12: CHEMBL403549 typed "Small molecule", rule says "Antibody" (<CHEMBL4>\D{5} → Antibody)
	//   ALERT row 15: CHEMBL572041 typed "Small molecule", rule says "Oligonucleotide" (<CHEMBL\D>\D{5} → ⊥)
	//   ALERT row 15: CHEMBL572041 typed "Small molecule", rule says "Oligonucleotide" (<CHEMBL5>\D{5} → Oligonucleotide)
	//   ALERT row 181: CHEMBL689610 typed "Antibody", rule says "Small molecule" (<CHEMBL\D>\D{5} → ⊥)
	// streamed 2000 rows: 93 alerts, 32/32 injected errors caught at ingestion
}

// Example_deltas shows incremental detection: a session detects once,
// then batched row deltas (appends, cell updates, deletes) flow through
// the session's stream engine, which maintains the violation set without
// re-running detection and reports exactly what each batch changed.
// Repairs route through the same engine, and a `?since=` cursor nets
// transient violations out.
func Example_deltas() {
	ctx := context.Background()
	d := datagen.PhoneState(2000, 0.01, 7)
	sys, err := anmat.New()
	check(err)
	sess := sys.NewSession("registry", d.Table, anmat.DefaultParams())
	check(sess.Run(ctx))
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s)\n",
		d.Table.NumRows(), len(sess.Discovered), len(sess.Violations))

	// Traffic arrives: one clean row, one dirty row, one in-place fix of
	// an existing record, and a retention delete — one atomic batch.
	clean := d.Table.Row(0)
	dirty := append([]string(nil), clean...)
	dirty[1] = "ZZ" // wrong state for the area code
	diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{
		anmat.AppendRows(clean, dirty),
		anmat.UpdateCell(1, "state", clean[1]),
		anmat.DeleteRows(2),
	})
	check(err)
	fmt.Printf("batch seq %d: %d row(s), +%d -%d violation(s)\n",
		diff.Seq, diff.Rows, len(diff.Added), len(diff.Removed))
	for _, v := range diff.Added[:3] {
		fmt.Printf("  + %s observed %q expected %q\n", v.Row, v.Observed, v.Expected)
	}

	// Repairs become cell deltas: the engine is never discarded, and the
	// diff comes back for free.
	repairs, err := sess.RunRepairs(ctx)
	check(err)
	changed, rdiff, err := sess.ApplyRepairs(ctx, repairs)
	check(err)
	fmt.Printf("applied %d repair(s): seq %d, -%d violation(s)\n",
		changed, rdiff.Seq, len(rdiff.Removed))

	// Poll "what changed since seq 0": violations added then repaired
	// within the span net out of the merged diff.
	eng, err := sess.Stream()
	check(err)
	net, err := eng.Since(0)
	check(err)
	fmt.Printf("net since seq 0: +%d -%d (now %d violation(s) at seq %d)\n",
		len(net.Added), len(net.Removed), len(sess.Violations), net.Seq)
	// Output:
	// baseline: 2000 rows, 1 PFD(s), 29 violation(s)
	// batch seq 1: 2001 row(s), +33 -29 violation(s)
	//   + <\D{4}>\D{6} → ⊥ observed "ZZ" expected "CA"
	//   + <713>\D{7} → TX observed "CA" expected "TX"
	//   + <\D{4}>\D{6} → ⊥ observed "TX" expected "CA"
	// applied 20 repair(s): seq 2, -33 violation(s)
	// net since seq 0: +0 -29 (now 0 violation(s) at seq 2)
}

// Example_sharded runs the same registry as Example_deltas on a
// Zipf-skewed table hash-partitioned on the rule set's block keys across
// four shard engines. Detection, deltas and repairs route through the
// sharded coordinator, the merged violation set stays byte-identical to
// a full detection, and the per-shard stats show the hot shard.
func Example_sharded() {
	ctx := context.Background()
	d := datagen.PhoneStateSkewed(4000, 0.01, 7, 1.4)
	sys, err := anmat.New(anmat.WithShards(4))
	check(err)
	sess := sys.NewSession("registry", d.Table, anmat.DefaultParams())
	check(sess.Run(ctx))
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s), %d shards\n",
		d.Table.NumRows(), len(sess.Discovered), len(sess.Violations), sess.Shards())

	// Appends route to the owning shards; an update that changes a row's
	// area code migrates the row across shards.
	dirty := d.Table.Row(0)
	dirty[1] = "ZZ"
	diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{
		anmat.AppendRows(dirty),
		anmat.UpdateCell(1, "phone", "2125550000"), // key move: 850… → 212…
	})
	check(err)
	fmt.Printf("batch seq %d: +%d -%d violation(s)\n", diff.Seq, len(diff.Added), len(diff.Removed))

	eng, err := sess.Stream()
	check(err)
	res, err := anmat.Detect(ctx, sess.Table, sess.Confirmed, 4)
	check(err)
	sharded, err := json.Marshal(eng.Violations())
	check(err)
	full, err := json.Marshal(res.Violations)
	check(err)
	fmt.Printf("%d sharded violation(s), byte-identical to full detection: %v\n",
		len(res.Violations), string(sharded) == string(full))

	// The replication factor counts rows hosted on more than one shard
	// (home shard + block-key owners).
	st := sess.EngineStats().Sharded
	fmt.Printf("replication %.2fx across %d shards:\n", st.Replication, st.Shards)
	for _, ps := range st.PerShard {
		fmt.Printf("  shard %d: %d row(s), %d violation(s), %d block(s)\n",
			ps.Shard, ps.Rows, ps.Engine.Violations, ps.Engine.Blocks)
	}

	repairs, err := sess.RunRepairs(ctx)
	check(err)
	n, rdiff, err := sess.ApplyRepairs(ctx, repairs)
	check(err)
	fmt.Printf("repairs: %d cell(s) fixed, %d violation(s) remain (seq %d)\n",
		n, len(sess.Violations), rdiff.Seq)
	// Output:
	// baseline: 4000 rows, 1 PFD(s), 62 violation(s), 4 shards
	// batch seq 1: +5 -1 violation(s)
	// 66 sharded violation(s), byte-identical to full detection: true
	// replication 1.74x across 4 shards:
	//   shard 0: 2912 row(s), 44 violation(s), 6 block(s)
	//   shard 1: 1313 row(s), 12 violation(s), 6 block(s)
	//   shard 2: 1308 row(s), 17 violation(s), 5 block(s)
	//   shard 3: 1447 row(s), 17 violation(s), 3 block(s)
	// repairs: 33 cell(s) fixed, 1 violation(s) remain (seq 2)
}
