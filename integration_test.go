package anmat

import (
	"context"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/tableau"
)

// TestPipelineAcrossFamilies runs the whole pipeline on every synthetic
// dataset family and checks the end-to-end quality floor: on each family,
// repair-identified rows must cover ≥90% of the injected errors with ≥90%
// precision. This is the regression net for the full system.
func TestPipelineAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	families := []struct {
		name string
		gen  func(n int, errRate float64, seed int64) *datagen.Dataset
		n    int
		rate float64
		cols map[string]bool // RHS columns errors are injected into
	}{
		{"phone", datagen.PhoneState, 4000, 0.005, map[string]bool{"state": true}},
		{"name", datagen.NameGender, 4000, 0.005, map[string]bool{"gender": true}},
		{"zip", datagen.ZipCity, 4000, 0.01, map[string]bool{"city": true, "state": true}},
		{"employee", datagen.EmployeeID, 4000, 0.005, map[string]bool{"department": true, "grade": true}},
		{"compound", datagen.Compound, 4000, 0.005, map[string]bool{"molecule_type": true}},
		{"addresses", datagen.Addresses, 4000, 0.005, map[string]bool{"state": true}},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			ds := fam.gen(fam.n, fam.rate, 2019)
			sys, err := New()
			if err != nil {
				t.Fatal(err)
			}
			sess := sys.NewSession("it", ds.Table, DefaultParams())
			if err := sess.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(sess.Discovered) == 0 {
				t.Fatal("no PFDs discovered")
			}

			flagged := map[int]bool{}
			for _, r := range sess.Repairs {
				if fam.cols[r.Cell.Column] {
					flagged[r.Cell.Row] = true
				}
			}
			injected := map[int]bool{}
			for _, e := range ds.Injected {
				if fam.cols[e.Cell.Column] {
					injected[e.Cell.Row] = true
				}
			}
			if len(injected) == 0 {
				t.Fatal("no injected errors to score")
			}
			caught, truePos := 0, 0
			for r := range injected {
				if flagged[r] {
					caught++
				}
			}
			for r := range flagged {
				if injected[r] {
					truePos++
				}
			}
			recall := float64(caught) / float64(len(injected))
			precision := 1.0
			if len(flagged) > 0 {
				precision = float64(truePos) / float64(len(flagged))
			}
			t.Logf("%s: injected=%d flagged=%d recall=%.2f precision=%.2f pfds=%d",
				fam.name, len(injected), len(flagged), recall, precision, len(sess.Discovered))
			if recall < 0.9 {
				t.Errorf("recall %.2f < 0.9", recall)
			}
			if precision < 0.9 {
				t.Errorf("precision %.2f < 0.9", precision)
			}
		})
	}
}

// TestFDAsPFDSpecialCase shows PFDs strictly subsume classical FDs: a PFD
// whose single variable row constrains the whole value (<\A*> → ⊥) has
// exactly whole-value FD semantics.
func TestFDAsPFDSpecialCase(t *testing.T) {
	tbl, err := NewTable("t", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"x", "1"}, {"x", "1"}, {"x", "2"}, // FD a→b violated at row 2
		{"y", "3"}, {"y", "3"},
	}
	for _, r := range rows {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	asPFD := pfd.New("t", "a", "b", tableau.New(tableau.Row{
		LHS: pattern.WholeValue(pattern.AnyString()),
		RHS: tableau.Wildcard,
	}))
	res, err := Detect(context.Background(), tbl, []*pfd.PFD{asPFD}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Violations
	if len(vs) != 1 {
		t.Fatalf("FD-as-PFD violations = %d, want 1", len(vs))
	}
	found := false
	for _, tu := range vs[0].Tuples {
		if tu == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("row 2 (the FD violation) not in %v", vs[0].Tuples)
	}
}
