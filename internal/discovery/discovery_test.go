package discovery

import (
	"context"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/invlist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// findPFD returns the PFD with the given LHS→RHS, or nil.
func findPFD(ps []*pfd.PFD, lhs, rhs string) *pfd.PFD {
	for _, p := range ps {
		if p.LHS == lhs && p.RHS == rhs {
			return p
		}
	}
	return nil
}

// hasRuleContaining reports whether any tableau row's rendering contains
// all the given substrings.
func hasRuleContaining(p *pfd.PFD, subs ...string) bool {
	for _, r := range p.Tableau.Rows() {
		s := r.String()
		all := true
		for _, sub := range subs {
			if !strings.Contains(s, sub) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func TestDiscoverPhoneState(t *testing.T) {
	d := datagen.PhoneState(2000, 0.005, 1)
	cfg := Default()
	res, err := Discover(context.Background(), d.Table, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "phone", "state")
	if p == nil {
		t.Fatalf("no phone→state PFD discovered; got %d PFDs", len(res.PFDs))
	}
	// Table 3 shape: area-code prefix rules like <850>\D{7} → FL.
	if !hasRuleContaining(p, "850", "FL") {
		t.Errorf("missing 850→FL rule; tableau:\n%s", p.Tableau)
	}
	if !hasRuleContaining(p, "607", "NY") {
		t.Errorf("missing 607→NY rule; tableau:\n%s", p.Tableau)
	}
	if p.Coverage < cfg.MinCoverage {
		t.Errorf("coverage %f below γ", p.Coverage)
	}
}

func TestDiscoverNameGender(t *testing.T) {
	d := datagen.NameGender(2000, 0.005, 2)
	res, err := Discover(context.Background(), d.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "full_name", "gender")
	if p == nil {
		t.Fatalf("no full_name→gender PFD discovered; got %d PFDs", len(res.PFDs))
	}
	// Table 3 shape: \A*,\ Donald\A* → M.
	if !hasRuleContaining(p, "Donald", "M") {
		t.Errorf("missing Donald→M rule; tableau:\n%s", p.Tableau)
	}
	if !hasRuleContaining(p, "Stacey", "F") {
		t.Errorf("missing Stacey→F rule; tableau:\n%s", p.Tableau)
	}
}

func TestDiscoverZipCity(t *testing.T) {
	d := datagen.ZipCity(2000, 0.005, 3)
	res, err := Discover(context.Background(), d.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	city := findPFD(res.PFDs, "zip", "city")
	if city == nil {
		t.Fatalf("no zip→city PFD; got %d PFDs", len(res.PFDs))
	}
	if !hasRuleContaining(city, "6060", "Chicago") {
		t.Errorf("missing 6060→Chicago rule; tableau:\n%s", city.Tableau)
	}
	state := findPFD(res.PFDs, "zip", "state")
	if state == nil {
		t.Fatal("no zip→state PFD")
	}
	if !hasRuleContaining(state, "IL") || !hasRuleContaining(state, "CA") {
		t.Errorf("missing state rules; tableau:\n%s", state.Tableau)
	}
}

func TestDiscoverEmployeeIDs(t *testing.T) {
	d := datagen.EmployeeID(2000, 0.002, 4)
	res, err := Discover(context.Background(), d.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	dept := findPFD(res.PFDs, "emp_id", "department")
	if dept == nil {
		t.Fatalf("no emp_id→department PFD; got %d PFDs", len(res.PFDs))
	}
	if !hasRuleContaining(dept, "F", "Finance") {
		t.Errorf("missing F→Finance rule; tableau:\n%s", dept.Tableau)
	}
}

func TestDiscoverAddresses(t *testing.T) {
	// Interior-token rules: the city token after the comma determines the
	// state, like the D2 rules of Table 3.
	d := datagen.Addresses(2000, 0.005, 26)
	res, err := Discover(context.Background(), d.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "address", "state")
	if p == nil {
		t.Fatalf("no address→state PFD; got %d PFDs", len(res.PFDs))
	}
	if !hasRuleContaining(p, "Springfield", "IL") {
		t.Errorf("missing Springfield→IL rule; tableau:\n%s", p.Tableau)
	}
	// The rule should anchor after the comma, Table 3 style.
	if !hasRuleContaining(p, `\A*,\ `, "Springfield") {
		t.Errorf("city rule not comma-anchored; tableau:\n%s", p.Tableau)
	}
}

func TestDiscoverVariableRows(t *testing.T) {
	d := datagen.PhoneState(2000, 0, 5)
	cfg := Default()
	res, err := Discover(context.Background(), d.Table, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "phone", "state")
	if p == nil {
		t.Fatal("no phone→state PFD")
	}
	var vars []tableau.Row
	for _, r := range p.Tableau.Rows() {
		if r.Variable() {
			vars = append(vars, r)
		}
	}
	if len(vars) == 0 {
		t.Fatalf("expected a variable row (λ5-style); tableau:\n%s", p.Tableau)
	}
	// The variable row should constrain a 3-digit prefix.
	if !strings.Contains(vars[0].LHS.String(), `<\D{3}>`) {
		t.Errorf("variable row LHS = %s, want <\\D{3}>-anchored", vars[0].LHS)
	}
}

func TestDiscoveryRespectsCoverage(t *testing.T) {
	d := datagen.PhoneState(500, 0, 6)
	cfg := Default()
	cfg.MinCoverage = 1.1 // impossible
	res, err := Discover(context.Background(), d.Table, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PFDs) != 0 {
		t.Errorf("γ > 1 should prune everything, got %d PFDs", len(res.PFDs))
	}
	for _, s := range res.Stats {
		if s.Kept {
			t.Errorf("stat %v marked kept", s.Candidate)
		}
	}
}

func TestDiscoveryRespectsViolationRatio(t *testing.T) {
	// With 20% injected errors and a 2% tolerance most rules die; with a
	// 30% tolerance they survive.
	d := datagen.PhoneState(1500, 0.20, 7)
	strict := Default()
	strict.MinSupport = 8
	resStrict, err := Discover(context.Background(), d.Table, nil, strict)
	if err != nil {
		t.Fatal(err)
	}
	loose := strict
	loose.MaxViolationRatio = 0.30
	resLoose, err := Discover(context.Background(), d.Table, nil, loose)
	if err != nil {
		t.Fatal(err)
	}
	nStrict, nLoose := 0, 0
	if p := findPFD(resStrict.PFDs, "phone", "state"); p != nil {
		nStrict = p.Tableau.Len()
	}
	if p := findPFD(resLoose.PFDs, "phone", "state"); p != nil {
		nLoose = p.Tableau.Len()
	}
	if nLoose <= nStrict {
		t.Errorf("loose tolerance should keep more rules: strict=%d loose=%d", nStrict, nLoose)
	}
}

func TestDiscoverOnPaperNameTable(t *testing.T) {
	// Table 1 of the paper, with more support so rules pass MinSupport.
	tbl := table.MustNew("name", []string{"name", "gender"})
	rows := [][2]string{
		{"John Charles", "M"}, {"John Bosco", "M"}, {"John Smith", "M"}, {"John Wayne", "M"},
		{"Susan Orlean", "F"}, {"Susan Boyle", "F"}, {"Susan Sontag", "F"}, {"Susan Sarandon", "F"},
	}
	for _, r := range rows {
		tbl.MustAppend(r[0], r[1])
	}
	cfg := Default()
	cfg.MinSupport = 3
	res, err := Discover(context.Background(), tbl, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "name", "gender")
	if p == nil {
		t.Fatal("no name→gender PFD on the paper's Table 1 shape")
	}
	if !hasRuleContaining(p, "John", "M") || !hasRuleContaining(p, "Susan", "F") {
		t.Errorf("λ1/λ2 not found; tableau:\n%s", p.Tableau)
	}
}

func TestDecisionFunctionOverride(t *testing.T) {
	d := datagen.PhoneState(800, 0, 8)
	cfg := Default()
	cfg.Decision = func(e invlist.Entry) bool { return false }
	res, err := Discover(context.Background(), d.Table, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.PFDs {
		if len(p.Tableau.ConstantRows()) > 0 {
			t.Errorf("decision=false should not admit constant rows, got %s", p.Tableau)
		}
	}
}

func TestTableauRowsOrderedBySupport(t *testing.T) {
	d := datagen.ZipCity(1500, 0, 9)
	res, err := Discover(context.Background(), d.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	p := findPFD(res.PFDs, "zip", "city")
	if p == nil {
		t.Fatal("no zip→city PFD")
	}
	rows := p.Tableau.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].Support > rows[i-1].Support {
			t.Errorf("rows not sorted by support: %d before %d", rows[i-1].Support, rows[i].Support)
		}
	}
}
