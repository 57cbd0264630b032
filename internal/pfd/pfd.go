// Package pfd defines the Pattern Functional Dependency type of Section 2:
// an embedded FD X → Y over a schema plus a pattern tableau, together with
// satisfaction/violation semantics and JSON serialization. This repository
// implements the single-attribute case (A → B) that the paper's discovery
// algorithm mines; composite keys reduce to it by column concatenation.
package pfd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// PFD is ψ = R(A → B, Tp).
type PFD struct {
	// Table is the relation name R.
	Table string
	// LHS and RHS are the attributes of the embedded FD A → B.
	LHS, RHS string
	// Tableau is Tp.
	Tableau *tableau.Tableau
	// Coverage is the fraction of LHS values matching some tableau row,
	// recorded at discovery time.
	Coverage float64
	// Source records how the PFD was obtained ("discovered", "manual").
	Source string
}

// New builds a PFD over one determining and one determined attribute.
func New(tbl, lhs, rhs string, tp *tableau.Tableau) *PFD {
	return &PFD{Table: tbl, LHS: lhs, RHS: rhs, Tableau: tp, Source: "manual"}
}

// String renders the PFD header like the paper: R([A = …] → [B]).
func (p *PFD) String() string {
	return fmt.Sprintf("%s (%s → %s), %d pattern tuple(s)", p.Table, p.LHS, p.RHS, p.Tableau.Len())
}

// Uncompiled returns a copy of p whose tableau patterns carry none of the
// automata detection compiled for p's (pattern.Constrained.Uncompiled):
// what a store that outlives the session keeps.
func (p *PFD) Uncompiled() *PFD {
	rows := p.Tableau.Rows()
	for i := range rows {
		rows[i].LHS = rows[i].LHS.Uncompiled()
	}
	cp := *p
	cp.Tableau = tableau.New(rows...)
	return &cp
}

// ID returns a stable identifier for storage.
func (p *PFD) ID() string {
	return fmt.Sprintf("%s:%s->%s", p.Table, p.LHS, p.RHS)
}

// Violation is one detected violation. Constant rows produce two-cell
// violations (the LHS cell that matched and the RHS cell that disagreed
// with the constant); variable rows produce four-cell violations across a
// tuple pair, as in the λ4 example of the paper.
type Violation struct {
	// PFDID identifies the violated dependency.
	PFDID string `json:"pfd"`
	// Row is the tableau row violated (its String rendering).
	Row string `json:"rule"`
	// Cells are the violating cells, sorted.
	Cells []table.CellRef `json:"cells"`
	// Tuples are the violating tuple ids (one for constant, two for
	// variable rows).
	Tuples []int `json:"tuples"`
	// Observed is the offending RHS value; Expected is the constant the
	// rule demands (constant rows) or the conflicting other value
	// (variable rows).
	Observed string `json:"observed"`
	Expected string `json:"expected"`
	// Variable marks four-cell (pair) violations.
	Variable bool `json:"variable"`
}

// Key returns a canonical identity for de-duplicating violations: an
// injective structural encoding of (PFDID, Row, Cells). Each
// variable-length component is NUL-escaped and NUL-terminated (see
// appendComponent) and each cell row's digits are closed with ':', so the
// encoding decodes unambiguously left to right — no choice of rule IDs,
// pattern renderings, or column names (including ones embedding separator
// bytes) can make two distinct identities collide, which a plain
// separator join cannot guarantee. Unlike a length-prefixed encoding,
// component escaping also preserves the bytewise order of the components
// themselves, so key-ordered output sorts the way the rendered fields
// read.
func (v Violation) Key() string {
	b := make([]byte, 0, 16+len(v.PFDID)+len(v.Row)+16*len(v.Cells))
	b = appendComponent(b, v.PFDID)
	b = appendComponent(b, v.Row)
	for _, c := range v.Cells {
		b = strconv.AppendInt(b, int64(c.Row), 10)
		b = append(b, ':') // closes the digit run: column names may start with digits
		b = appendComponent(b, c.Column)
	}
	return string(b)
}

// appendComponent appends s with NUL escaped (0x00 → 0x00 0x01) followed
// by a 0x00 0x00 terminator. A decoder scans to the first unescaped NUL,
// so adjacent components never bleed into each other, and the escaped
// form compares bytewise in the same order as s itself.
func appendComponent(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			b = append(b, 0, 1)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, 0, 0)
}

// CompareKeys orders two violations exactly as their Key() strings
// compare bytewise, without rendering either. Escaping preserves each
// component's order and terminates it, so the keys compare component by
// component: rule ID, tableau row, then per cell the row number as the
// decimal text Key() writes ("10:" sorts before "9:") and the column
// name; a key with fewer cells is a prefix of the other and sorts first.
func CompareKeys(a, b *Violation) int {
	if c := strings.Compare(a.PFDID, b.PFDID); c != 0 {
		return c
	}
	if c := strings.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	for i := 0; i < len(a.Cells) && i < len(b.Cells); i++ {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Row != cb.Row {
			var ba, bb [21]byte // 19 digits, a sign, the ':' closing the run
			da := append(strconv.AppendInt(ba[:0], int64(ca.Row), 10), ':')
			db := append(strconv.AppendInt(bb[:0], int64(cb.Row), 10), ':')
			return bytes.Compare(da, db)
		}
		if c := strings.Compare(ca.Column, cb.Column); c != 0 {
			return c
		}
	}
	return len(a.Cells) - len(b.Cells)
}

// SatisfiedBy checks every tuple (and, for variable rows, every matching
// tuple pair) of t against the PFD and reports whether no violation
// exists. It is the reference semantics used by tests; detection uses the
// indexed engine in internal/detect.
func (p *PFD) SatisfiedBy(t *table.Table) (bool, error) {
	vs, err := p.Check(t)
	if err != nil {
		return false, err
	}
	return len(vs) == 0, nil
}

// Check is the brute-force reference checker: O(n) per constant row and
// O(n²) per variable row. It exists to validate the optimized engine.
func (p *PFD) Check(t *table.Table) ([]Violation, error) {
	li, ok := t.ColIndex(p.LHS)
	if !ok {
		return nil, fmt.Errorf("pfd %s: table %q lacks column %q", p.ID(), t.Name(), p.LHS)
	}
	ri, ok := t.ColIndex(p.RHS)
	if !ok {
		return nil, fmt.Errorf("pfd %s: table %q lacks column %q", p.ID(), t.Name(), p.RHS)
	}
	var out []Violation
	n := t.NumRows()
	for _, row := range p.Tableau.Rows() {
		emb := row.LHS.Embedded()
		src := SourceOf(p, row)
		if !row.Variable() {
			for i := 0; i < n; i++ {
				lv, rv := t.Cell(i, li), t.Cell(i, ri)
				if emb.Matches(lv) && rv != row.RHS {
					out = append(out, src.Constant(i, rv))
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			lvi := t.Cell(i, li)
			if !emb.Matches(lvi) {
				continue
			}
			for j := i + 1; j < n; j++ {
				lvj := t.Cell(j, li)
				if !emb.Matches(lvj) {
					continue
				}
				if t.Cell(i, ri) == t.Cell(j, ri) {
					continue
				}
				if row.LHS.EquivalentUnder(lvi, lvj) {
					out = append(out, src.Pair(i, j, t.Cell(i, ri), t.Cell(j, ri)))
				}
			}
		}
	}
	return out, nil
}

// Source is what the violations of one tableau row of a PFD name: the
// rule's ID and columns, the row's rendering and its constant. SourceOf
// renders it once per row, however many violations the row renders.
type Source struct {
	PFDID, LHS, RHS string // the rule's ID and its columns
	Row, Expected   string // the row's rendering and its RHS
}

// SourceOf renders the names of tableau row row of p.
func SourceOf(p *PFD, row tableau.Row) Source {
	return Source{PFDID: p.ID(), LHS: p.LHS, RHS: p.RHS, Row: row.String(), Expected: row.RHS}
}

// Constant builds the two-cell violation of a constant row by the tuple
// holding rhsVal.
func (s *Source) Constant(tuple int, rhsVal string) Violation {
	cells := []table.CellRef{
		{Row: tuple, Column: s.LHS},
		{Row: tuple, Column: s.RHS},
	}
	table.SortCellRefs(cells)
	return Violation{
		PFDID:    s.PFDID,
		Row:      s.Row,
		Cells:    cells,
		Tuples:   []int{tuple},
		Observed: rhsVal,
		Expected: s.Expected,
	}
}

// Pair builds the four-cell violation of a variable row over the tuple
// pair (i, j).
func (s *Source) Pair(i, j int, rhsI, rhsJ string) Violation {
	if j < i {
		i, j = j, i
		rhsI, rhsJ = rhsJ, rhsI
	}
	cells := []table.CellRef{
		{Row: i, Column: s.LHS},
		{Row: i, Column: s.RHS},
		{Row: j, Column: s.LHS},
		{Row: j, Column: s.RHS},
	}
	table.SortCellRefs(cells)
	return Violation{
		PFDID:    s.PFDID,
		Row:      s.Row,
		Cells:    cells,
		Tuples:   []int{i, j},
		Observed: rhsJ,
		Expected: rhsI,
		Variable: true,
	}
}

// jsonPFD is the serialization shape; patterns travel as strings.
type jsonPFD struct {
	Table    string    `json:"table"`
	LHS      string    `json:"lhs"`
	RHS      string    `json:"rhs"`
	Coverage float64   `json:"coverage"`
	Source   string    `json:"source"`
	Rows     []jsonRow `json:"tableau"`
}

type jsonRow struct {
	LHS      string `json:"lhs"`
	RHS      string `json:"rhs"`
	Support  int    `json:"support"`
	Position int    `json:"position"`
}

// MarshalJSON serializes the PFD with tableau patterns in the
// angle-bracket constrained syntax.
func (p *PFD) MarshalJSON() ([]byte, error) {
	j := jsonPFD{Table: p.Table, LHS: p.LHS, RHS: p.RHS, Coverage: p.Coverage, Source: p.Source}
	for _, r := range p.Tableau.Rows() {
		j.Rows = append(j.Rows, jsonRow{
			LHS: r.LHS.String(), RHS: r.RHS, Support: r.Support, Position: r.Position,
		})
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the serialized form back.
func (p *PFD) UnmarshalJSON(b []byte) error {
	var j jsonPFD
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	tp := tableau.New()
	for _, r := range j.Rows {
		q, err := pattern.ParseConstrained(r.LHS)
		if err != nil {
			return fmt.Errorf("tableau row %q: %w", r.LHS, err)
		}
		tp.Add(tableau.Row{LHS: q, RHS: r.RHS, Support: r.Support, Position: r.Position})
	}
	p.Table, p.LHS, p.RHS = j.Table, j.LHS, j.RHS
	p.Coverage, p.Source, p.Tableau = j.Coverage, j.Source, tp
	return nil
}
