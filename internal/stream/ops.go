// Delta operations and violation diffs: the wire-level vocabulary of the
// streaming subsystem. A Batch is an ordered list of Ops applied
// atomically; every applied batch advances the engine's sequence number
// by one and yields a Diff describing exactly how the maintained
// violation set changed.
package stream

import (
	"fmt"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
)

// OpKind names one delta operation.
type OpKind string

// The three delta operations.
const (
	OpAppend OpKind = "append"
	OpUpdate OpKind = "update"
	OpDelete OpKind = "delete"
)

// Op is one delta operation. The populated fields depend on Kind:
// append carries Rows (full records in schema order), update carries
// Row/Column/Value (one cell overwrite), delete carries Drop (row
// indices; survivors are renumbered downward, and later ops in the same
// batch address the renumbered table). Incoming cell values are
// normalized with table.NormalizeCell — the engine is an ingestion
// boundary like ReadCSV, so streamed tables keep the CSV round-trip
// invariant.
type Op struct {
	Kind   OpKind     `json:"op"`
	Rows   [][]string `json:"rows,omitempty"`
	Row    int        `json:"row,omitempty"`
	Column string     `json:"column,omitempty"`
	Value  string     `json:"value,omitempty"`
	Drop   []int      `json:"drop,omitempty"`
}

// AppendRows builds an append op.
func AppendRows(rows ...[]string) Op { return Op{Kind: OpAppend, Rows: rows} }

// UpdateCell builds a single-cell update op.
func UpdateCell(row int, column, value string) Op {
	return Op{Kind: OpUpdate, Row: row, Column: column, Value: value}
}

// DeleteRows builds a delete op.
func DeleteRows(rows ...int) Op { return Op{Kind: OpDelete, Drop: rows} }

// Batch is an ordered list of delta operations applied atomically: the
// whole batch is validated before any row is touched, so a malformed
// batch changes nothing.
type Batch []Op

// Diff reports how one applied batch (or a merged span of batches, see
// Sequencer.Since) changed the maintained violation set. Added holds
// violations present after but not before; Removed the reverse; a
// violation whose rendering changed (e.g. its rows were renumbered by a
// delete) appears in both. Both lists are in the engine's violation
// total order.
type Diff struct {
	// Seq is the sequence number of the engine state the diff leads to.
	Seq int64 `json:"seq"`
	// Rows is the table's row count at Seq.
	Rows    int             `json:"rows"`
	Added   []pfd.Violation `json:"added"`
	Removed []pfd.Violation `json:"removed"`
	// Reset marks a Since response that could not be expressed as a diff
	// because the cursor predates the retained log: Added then holds the
	// full current violation set and Removed is empty.
	Reset bool `json:"reset,omitempty"`
}

// ValidateBatch checks a batch against a table without applying it: the
// whole batch against the table schema and a virtual row count that
// tracks appends and deletes through the batch. Sequencer.ApplyCtx runs
// it before anything is journaled or mutated.
func ValidateBatch(t *table.Table, batch Batch) error {
	n := t.NumRows()
	for i, op := range batch {
		switch op.Kind {
		case OpAppend:
			if len(op.Rows) == 0 {
				return fmt.Errorf("op %d: append without rows", i)
			}
			for j, r := range op.Rows {
				if len(r) != t.NumCols() {
					return fmt.Errorf("op %d: append row %d has %d cells, want %d", i, j, len(r), t.NumCols())
				}
			}
			n += len(op.Rows)
		case OpUpdate:
			if _, ok := t.ColIndex(op.Column); !ok {
				return fmt.Errorf("op %d: update: no column %q", i, op.Column)
			}
			if op.Row < 0 || op.Row >= n {
				return fmt.Errorf("op %d: update row %d out of range [0,%d)", i, op.Row, n)
			}
		case OpDelete:
			if len(op.Drop) == 0 {
				return fmt.Errorf("op %d: delete without rows", i)
			}
			distinct := make(map[int]bool, len(op.Drop))
			for _, r := range op.Drop {
				if r < 0 || r >= n {
					return fmt.Errorf("op %d: delete row %d out of range [0,%d)", i, r, n)
				}
				distinct[r] = true
			}
			n -= len(distinct)
		default:
			return fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
	}
	return nil
}
