// Package datagen generates the synthetic stand-ins for the demo's
// datasets. Each generator is deterministic under its seed and produces a
// clean table plus an error-injection step that records ground truth, so
// experiments can score precision/recall of the detected violations.
//
// Families:
//
//   - PhoneState  (D1): NANP phone numbers whose area code determines the
//     state, e.g. 850… → FL (Table 3, first block).
//   - NameGender  (D2): "Last, First M." full names whose first name
//     determines the gender (Table 3, second block).
//   - ZipCity     (D5): 5-digit ZIPs whose prefix determines the city and
//     state (Table 3, third/fourth blocks).
//   - EmployeeID  (intro): codes like F-9-107 where the letter determines
//     the department and the digit the grade.
//   - Compound    (ChEMBL-like): CHEMBL-prefixed ids with a type column.
package datagen

import (
	"fmt"
	"math/rand"

	"github.com/anmat/anmat/internal/table"
)

// Injected records one injected error: the cell, the clean value it
// replaced, and the dirty value written.
type Injected struct {
	Cell  table.CellRef
	Clean string
	Dirty string
}

// Dataset bundles a generated table with its injected-error ground truth.
type Dataset struct {
	Table    *table.Table
	Injected []Injected
}

// InjectedRows returns the set of row ids with at least one injected error.
func (d *Dataset) InjectedRows() map[int]bool {
	m := make(map[int]bool, len(d.Injected))
	for _, e := range d.Injected {
		m[e.Cell.Row] = true
	}
	return m
}

// areaCodes maps NANP area codes to states — the five Table 3 examples
// plus enough others for realistic diversity.
var areaCodes = []struct{ code, state string }{
	{"850", "FL"}, {"607", "NY"}, {"404", "GA"}, {"217", "IL"}, {"860", "CT"},
	{"212", "NY"}, {"213", "CA"}, {"305", "FL"}, {"312", "IL"}, {"415", "CA"},
	{"512", "TX"}, {"617", "MA"}, {"702", "NV"}, {"713", "TX"}, {"206", "WA"},
	{"303", "CO"}, {"602", "AZ"}, {"503", "OR"}, {"615", "TN"}, {"504", "LA"},
}

// states is the pool of wrong states used by error injection.
var states = []string{
	"AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "IL",
	"IN", "IA", "KS", "KY", "LA", "MA", "MI", "MN", "MS", "MO", "NV", "NY",
	"OH", "OK", "OR", "PA", "SC", "TN", "TX", "WA",
}

// PhoneState generates the D1 stand-in: columns (phone, state). Phones
// are 10-digit NANP numbers; the area code functionally determines the
// state. errRate is the fraction of rows whose state is replaced with a
// different state.
func PhoneState(n int, errRate float64, seed int64) *Dataset {
	return PhoneStateSkewed(n, errRate, seed, 0)
}

// PhoneStateSkewed is PhoneState with a Zipf-distributed area-code
// choice: with skew s > 1 the area codes — the variable rule's block
// keys — follow a power law, so a few keys dominate the table. That is
// the workload that stresses hash-partitioned detection with hot-shard
// imbalance (the shard owning a dominant key hosts most rows) while
// results stay exact. skew <= 1 falls back to the uniform distribution.
func PhoneStateSkewed(n int, errRate float64, seed int64, skew float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pick := func() int { return rng.Intn(len(areaCodes)) }
	if skew > 1 {
		z := rand.NewZipf(rng, skew, 1, uint64(len(areaCodes)-1))
		pick = func() int { return int(z.Uint64()) }
	}
	t := table.MustNew("d1_phone_state", []string{"phone", "state"})
	for i := 0; i < n; i++ {
		ac := areaCodes[pick()]
		phone := ac.code + fmt.Sprintf("%07d", rng.Intn(10_000_000))
		t.MustAppend(phone, ac.state)
	}
	return injectCategorical(t, "state", states, errRate, rng)
}

// firstNames maps first names to the gender recorded for them; the five
// Table 3 names appear first.
var firstNames = []struct{ name, gender string }{
	{"Donald", "M"}, {"Stacey", "F"}, {"David", "M"}, {"Jerry", "M"}, {"Alan", "M"},
	{"John", "M"}, {"Susan", "F"}, {"Mary", "F"}, {"James", "M"}, {"Linda", "F"},
	{"Robert", "M"}, {"Patricia", "F"}, {"Michael", "M"}, {"Barbara", "F"},
	{"William", "M"}, {"Elizabeth", "F"}, {"Richard", "M"}, {"Jennifer", "F"},
	{"Thomas", "M"}, {"Margaret", "F"},
}

var lastNames = []string{
	"Holloway", "Jones", "Kimbell", "Mallack", "Otillio", "Smith", "Brown",
	"Wilson", "Taylor", "Anderson", "Clark", "Lewis", "Walker", "Hall",
	"Young", "King", "Wright", "Scott", "Green", "Baker",
}

// NameGender generates the D2 stand-in: columns (full_name, gender) with
// names shaped "Last, First" or "Last, First M." as in Table 3.
func NameGender(n int, errRate float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.MustNew("d2_name_gender", []string{"full_name", "gender"})
	for i := 0; i < n; i++ {
		fn := firstNames[rng.Intn(len(firstNames))]
		ln := lastNames[rng.Intn(len(lastNames))]
		full := ln + ", " + fn.name
		if rng.Float64() < 0.5 {
			full += " " + string(rune('A'+rng.Intn(26))) + "."
		}
		t.MustAppend(full, fn.gender)
	}
	return injectCategorical(t, "gender", []string{"M", "F"}, errRate, rng)
}

// zipPrefixes maps 4-digit ZIP prefixes to (city, state); the Table 3
// examples (6060x → Chicago/IL, 95xxx → CA) are present.
var zipPrefixes = []struct{ prefix, city, state string }{
	{"6060", "Chicago", "IL"}, {"6061", "Chicago", "IL"}, {"6062", "Evanston", "IL"},
	{"9000", "Los Angeles", "CA"}, {"9001", "Los Angeles", "CA"},
	{"9560", "Auburn", "CA"}, {"9561", "Sacramento", "CA"},
	{"1000", "New York", "NY"}, {"1001", "New York", "NY"},
	{"0210", "Boston", "MA"}, {"0211", "Boston", "MA"},
	{"3010", "Atlanta", "GA"}, {"3030", "Atlanta", "GA"},
	{"7770", "Houston", "TX"}, {"7700", "Houston", "TX"},
	{"9810", "Seattle", "WA"}, {"9811", "Seattle", "WA"},
}

// ZipCity generates the D5 stand-in: columns (zip, city, state). The
// 4-digit zip prefix determines the city; the 2-digit prefix family
// determines the state. City errors are typos (the Table 3 errors are
// "Chicag", "C", "Chciago"); state errors are wrong codes or case slips
// like "lL".
func ZipCity(n int, errRate float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.MustNew("d5_zip", []string{"zip", "city", "state"})
	for i := 0; i < n; i++ {
		zp := zipPrefixes[rng.Intn(len(zipPrefixes))]
		zip := zp.prefix + fmt.Sprintf("%d", rng.Intn(10))
		t.MustAppend(zip, zp.city, zp.state)
	}
	d := &Dataset{Table: t}
	ci, _ := t.ColIndex("city")
	si, _ := t.ColIndex("state")
	for r := 0; r < t.NumRows(); r++ {
		if rng.Float64() < errRate {
			clean := t.Cell(r, ci)
			dirty := typo(clean, rng)
			if dirty != clean {
				t.SetCell(r, ci, dirty)
				d.Injected = append(d.Injected, Injected{
					Cell: table.CellRef{Row: r, Column: "city"}, Clean: clean, Dirty: dirty,
				})
			}
		}
		if rng.Float64() < errRate {
			clean := t.Cell(r, si)
			dirty := stateError(clean, rng)
			if dirty != clean {
				t.SetCell(r, si, dirty)
				d.Injected = append(d.Injected, Injected{
					Cell: table.CellRef{Row: r, Column: "state"}, Clean: clean, Dirty: dirty,
				})
			}
		}
	}
	return d
}

// typo produces a Table 3-style city typo: truncation, character drop, or
// adjacent transposition.
func typo(s string, rng *rand.Rand) string {
	rs := []rune(s)
	if len(rs) < 2 {
		return s + "x"
	}
	switch rng.Intn(3) {
	case 0: // truncate ("Chicag", "C")
		k := 1 + rng.Intn(len(rs)-1)
		return string(rs[:k])
	case 1: // drop an interior character
		i := 1 + rng.Intn(len(rs)-1)
		return string(rs[:i]) + string(rs[i+1:])
	default: // transpose ("Chciago")
		i := rng.Intn(len(rs) - 1)
		rs[i], rs[i+1] = rs[i+1], rs[i]
		return string(rs)
	}
}

// stateError produces a wrong state code or a case slip such as "lL".
func stateError(s string, rng *rand.Rand) string {
	if rng.Intn(2) == 0 && len(s) == 2 {
		return string([]rune{rune(s[0]) + ('a' - 'A'), rune(s[1])})
	}
	for i := 0; i < 10; i++ {
		w := states[rng.Intn(len(states))]
		if w != s {
			return w
		}
	}
	return s
}

// departments maps the employee-ID letter to a department (the intro's
// "F-9-107": F → financial department, 9 → grade).
var departments = []struct{ letter, dept string }{
	{"F", "Finance"}, {"E", "Engineering"}, {"H", "HR"}, {"M", "Marketing"},
	{"S", "Sales"}, {"R", "Research"}, {"L", "Legal"}, {"O", "Operations"},
}

var grades = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9"}

// EmployeeID generates the intro stand-in: columns (emp_id, department,
// grade). IDs look like F-9-107; the letter determines the department and
// the first digit group the grade.
func EmployeeID(n int, errRate float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.MustNew("employees", []string{"emp_id", "department", "grade"})
	for i := 0; i < n; i++ {
		d := departments[rng.Intn(len(departments))]
		g := grades[rng.Intn(len(grades))]
		id := fmt.Sprintf("%s-%s-%03d", d.letter, g, rng.Intn(1000))
		t.MustAppend(id, d.dept, "G"+g)
	}
	rngDept := rand.New(rand.NewSource(seed + 1))
	deptNames := make([]string, len(departments))
	for i, d := range departments {
		deptNames[i] = d.dept
	}
	out := injectCategorical(t, "department", deptNames, errRate, rngDept)
	gradeNames := make([]string, len(grades))
	for i, g := range grades {
		gradeNames[i] = "G" + g
	}
	out2 := injectCategorical(out.Table, "grade", gradeNames, errRate, rngDept)
	out2.Injected = append(out.Injected, out2.Injected...)
	return out2
}

// compoundTypes is the ChEMBL-like id → type mapping by prefix band.
var compoundTypes = []struct{ band, typ string }{
	{"1", "Small molecule"}, {"2", "Small molecule"}, {"3", "Protein"},
	{"4", "Antibody"}, {"5", "Oligonucleotide"}, {"6", "Small molecule"},
}

// Compound generates a ChEMBL-like stand-in: columns (compound_id,
// molecule_type) where ids look like CHEMBL153534 and the leading digit
// band of the numeric part determines the type.
func Compound(n int, errRate float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	t := table.MustNew("chembl_compounds", []string{"compound_id", "molecule_type"})
	types := make([]string, 0, len(compoundTypes))
	seen := map[string]bool{}
	for _, ct := range compoundTypes {
		if !seen[ct.typ] {
			seen[ct.typ] = true
			types = append(types, ct.typ)
		}
	}
	for i := 0; i < n; i++ {
		ct := compoundTypes[rng.Intn(len(compoundTypes))]
		id := "CHEMBL" + ct.band + fmt.Sprintf("%05d", rng.Intn(100_000))
		t.MustAppend(id, ct.typ)
	}
	return injectCategorical(t, "molecule_type", types, errRate, rng)
}

// streetSuffixes and cityStates feed the Addresses generator.
var streetSuffixes = []string{"St", "Ave", "Blvd", "Rd", "Ln", "Dr"}

var cityStates = []struct{ city, state string }{
	{"Springfield", "IL"}, {"Chicago", "IL"}, {"Austin", "TX"},
	{"Houston", "TX"}, {"Miami", "FL"}, {"Tampa", "FL"},
	{"Albany", "NY"}, {"Buffalo", "NY"}, {"Denver", "CO"},
	{"Boulder", "CO"}, {"Salem", "OR"}, {"Portland", "OR"},
}

// Addresses generates a data.gov-style address table: columns (address,
// state) where address looks like "123 Main St, Springfield" and the city
// token (after the comma) determines the state. Token-mode discovery
// mines interior-token rules like `\A*,\ <Springfield> → IL`.
func Addresses(n int, errRate float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	streets := []string{"Main", "Oak", "Maple", "Washington", "Lake", "Hill", "Park", "Cedar"}
	t := table.MustNew("addresses", []string{"address", "state"})
	for i := 0; i < n; i++ {
		cs := cityStates[rng.Intn(len(cityStates))]
		addr := fmt.Sprintf("%d %s %s, %s",
			1+rng.Intn(9999),
			streets[rng.Intn(len(streets))],
			streetSuffixes[rng.Intn(len(streetSuffixes))],
			cs.city)
		t.MustAppend(addr, cs.state)
	}
	return injectCategorical(t, "state", states, errRate, rng)
}

// injectCategorical replaces the named column's value with a different
// member of pool in ~errRate of the rows, recording ground truth.
func injectCategorical(t *table.Table, col string, pool []string, errRate float64, rng *rand.Rand) *Dataset {
	d := &Dataset{Table: t}
	ci, ok := t.ColIndex(col)
	if !ok {
		return d
	}
	for r := 0; r < t.NumRows(); r++ {
		if rng.Float64() >= errRate {
			continue
		}
		clean := t.Cell(r, ci)
		dirty := clean
		for i := 0; i < 20 && dirty == clean; i++ {
			dirty = pool[rng.Intn(len(pool))]
		}
		if dirty == clean {
			continue
		}
		t.SetCell(r, ci, dirty)
		d.Injected = append(d.Injected, Injected{
			Cell: table.CellRef{Row: r, Column: col}, Clean: clean, Dirty: dirty,
		})
	}
	return d
}
