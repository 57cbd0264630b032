// Package fd implements the classical baselines the paper compares
// against: exact functional-dependency discovery by partition refinement
// (the core of TANE) and FD violation detection over whole attribute
// values. PFDs subsume these; the baseline exists to demonstrate the
// errors that whole-value dependencies cannot catch (Section 1:
// "the fundamental limitation of previous ICs").
package fd

import (
	"fmt"
	"sort"

	"github.com/anmat/anmat/internal/table"
)

// FD is a whole-value functional dependency A → B over single attributes.
type FD struct {
	LHS, RHS string
}

// String renders the dependency.
func (f FD) String() string { return f.LHS + " -> " + f.RHS }

// partition returns the stripped partition of a column: the groups of row
// ids sharing a value, with singleton groups removed (they can never
// witness or violate an FD).
func partition(values []string) [][]int {
	groups := make(map[string][]int)
	for i, v := range values {
		groups[v] = append(groups[v], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refines reports whether the LHS partition refines the RHS values: every
// LHS group agrees on the RHS. This is the TANE criterion |π_A| = |π_{AB}|
// specialized to single attributes, with an error budget: up to maxViol
// rows per group may disagree with the group's majority (g3-style
// approximate FDs), supporting discovery from dirty data.
func refines(lhsPart [][]int, rhs []string, maxViolRatio float64) bool {
	total, viol := 0, 0
	for _, g := range lhsPart {
		counts := make(map[string]int)
		for _, r := range g {
			counts[rhs[r]]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		total += len(g)
		viol += len(g) - max
	}
	if total == 0 {
		return true
	}
	return float64(viol)/float64(total) <= maxViolRatio
}

// Discover finds all single-attribute FDs A → B holding on the table
// exactly (maxViolRatio = 0) or approximately.
func Discover(t *table.Table, maxViolRatio float64) []FD {
	cols := t.Columns()
	parts := make(map[string][][]int, len(cols))
	vals := make(map[string][]string, len(cols))
	for i, c := range cols {
		v := t.ColumnByIndex(i)
		vals[c] = v
		parts[c] = partition(v)
	}
	var out []FD
	for _, a := range cols {
		for _, b := range cols {
			if a == b {
				continue
			}
			if refines(parts[a], vals[b], maxViolRatio) {
				out = append(out, FD{LHS: a, RHS: b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LHS != out[j].LHS {
			return out[i].LHS < out[j].LHS
		}
		return out[i].RHS < out[j].RHS
	})
	return out
}

// Violation is a whole-value FD violation: two rows agree on the LHS and
// disagree on the RHS.
type Violation struct {
	FD     FD
	RowI   int
	RowJ   int
	LHSVal string
	RHSI   string
	RHSJ   string
}

// Check returns the violations of an FD. It reports one violation per
// offending row against the group's majority representative, mirroring the
// linear pairing the PFD engine uses, so violation counts are comparable.
func Check(t *table.Table, f FD) ([]Violation, error) {
	li, ok := t.ColIndex(f.LHS)
	if !ok {
		return nil, fmt.Errorf("fd %s: no column %q", f, f.LHS)
	}
	ri, ok := t.ColIndex(f.RHS)
	if !ok {
		return nil, fmt.Errorf("fd %s: no column %q", f, f.RHS)
	}
	groups := make(map[string][]int)
	for r := 0; r < t.NumRows(); r++ {
		v := t.Cell(r, li)
		groups[v] = append(groups[v], r)
	}
	var keys []string
	for k, g := range groups {
		if len(g) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []Violation
	for _, k := range keys {
		g := groups[k]
		counts := make(map[string]int)
		for _, r := range g {
			counts[t.Cell(r, ri)]++
		}
		maj, majN := "", -1
		for v, c := range counts {
			if c > majN || (c == majN && v < maj) {
				maj, majN = v, c
			}
		}
		if majN == len(g) {
			continue
		}
		rep := -1
		for _, r := range g {
			if t.Cell(r, ri) == maj {
				rep = r
				break
			}
		}
		for _, r := range g {
			if t.Cell(r, ri) != maj {
				out = append(out, Violation{
					FD: f, RowI: rep, RowJ: r,
					LHSVal: k, RHSI: maj, RHSJ: t.Cell(r, ri),
				})
			}
		}
	}
	return out, nil
}

// ViolatingRows collects the distinct offending row ids from violations
// (RowJ is the offender under majority semantics).
func ViolatingRows(vs []Violation) map[int]bool {
	m := make(map[int]bool, len(vs))
	for _, v := range vs {
		m[v.RowJ] = true
	}
	return m
}
