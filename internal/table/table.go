// Package table is the relational substrate of ANMAT: an in-memory table
// with a named schema, string-typed cells, row/cell addressing, and CSV
// input/output. Discovery and detection operate on this representation.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"github.com/anmat/anmat/internal/intern"
)

// Table is a relation instance: an ordered list of column names and rows
// of cells. All cells are strings; type inference happens in the profiler.
type Table struct {
	name    string
	columns []string
	colIdx  map[string]int
	rows    [][]string
	// version counts mutations (SetCell, Append, Derive) so index caches
	// built over the table can detect staleness. See Version.
	version int64

	// interned holds the dictionary-coded views of columns that some
	// consumer asked for via InternedColumn. Views are built lazily and
	// then maintained incrementally by every mutation, so the detection
	// hot path reads stable coded columns instead of re-scanning strings.
	// internedMu guards the lazy build; mutations follow the same
	// phase discipline as Version (mutate and detect separately).
	internedMu sync.Mutex
	interned   map[int]*Interned

	// spare is the row-header slice the last released View handed back,
	// for the next Freeze to copy into (see View.Release, the one call
	// that may race with the table's own, hence the lock).
	spareMu sync.Mutex
	spare   [][]string
}

// Interned is one column's dictionary-coded view: IDs[r] is the dense
// dictionary ID of the cell at (r, column). Two cells of the column are
// equal iff their IDs are equal. The view is owned by the table and
// maintained under Append/SetCell/DeleteRows; deleting rows compacts IDs
// in row order but never renumbers the dictionary, so per-ID caches
// (DFA verdicts, extraction memos) survive deletes.
type Interned struct {
	Dict *intern.Dict
	IDs  []uint32
}

// Value returns the cell string for row r through the coded view.
func (iv *Interned) Value(r int) string { return iv.Dict.Value(iv.IDs[r]) }

// New creates an empty table with the given column names.
func New(name string, columns []string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("table %q: no columns", name)
	}
	idx := make(map[string]int, len(columns))
	for i, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("table %q: empty column name at %d", name, i)
		}
		if _, dup := idx[c]; dup {
			return nil, fmt.Errorf("table %q: duplicate column %q", name, c)
		}
		idx[c] = i
	}
	cols := make([]string, len(columns))
	copy(cols, columns)
	return &Table{name: name, columns: cols, colIdx: idx}, nil
}

// MustNew is New that panics on error.
func MustNew(name string, columns []string) *Table {
	t, err := New(name, columns)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column names in schema order.
func (t *Table) Columns() []string {
	cp := make([]string, len(t.columns))
	copy(cp, t.columns)
	return cp
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.columns) }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.rows) }

// ColIndex returns the index of the named column and whether it exists.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// Append adds a row. The row must have exactly one cell per column.
func (t *Table) Append(row []string) error {
	if len(row) != len(t.columns) {
		return fmt.Errorf("table %q: row has %d cells, want %d", t.name, len(row), len(t.columns))
	}
	cp := make([]string, len(row))
	copy(cp, row)
	t.rows = append(t.rows, cp)
	for ci, iv := range t.interned {
		iv.IDs = append(iv.IDs, iv.Dict.Intern(cp[ci]))
	}
	t.version++
	return nil
}

// MustAppend is Append that panics on error.
func (t *Table) MustAppend(row ...string) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Cell returns the value at (row, column index).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// CellByName returns the value at (row, column name).
func (t *Table) CellByName(row int, col string) (string, error) {
	i, ok := t.colIdx[col]
	if !ok {
		return "", fmt.Errorf("table %q: no column %q", t.name, col)
	}
	return t.rows[row][i], nil
}

// SetCell overwrites the value at (row, column index). It is used by the
// repair engine and by error injection in the data generators. The row
// is replaced by an updated copy, never written in place: a frozen View
// may share it (see Freeze).
func (t *Table) SetCell(row, col int, v string) {
	cp := make([]string, len(t.rows[row]))
	copy(cp, t.rows[row])
	cp[col] = v
	t.rows[row] = cp
	if iv, ok := t.interned[col]; ok {
		iv.IDs[row] = iv.Dict.Intern(v)
	}
	t.version++
}

// InternedColumn returns the dictionary-coded view of the column at
// index i, building it on first request and maintaining it through every
// subsequent mutation. The returned view is shared: callers must treat
// it as read-only and follow the table's mutate/detect phase discipline.
func (t *Table) InternedColumn(i int) *Interned {
	t.internedMu.Lock()
	defer t.internedMu.Unlock()
	if iv, ok := t.interned[i]; ok {
		return iv
	}
	iv := &Interned{Dict: intern.NewDict(), IDs: make([]uint32, len(t.rows))}
	for r := range t.rows {
		iv.IDs[r] = iv.Dict.Intern(t.rows[r][i])
	}
	if t.interned == nil {
		t.interned = make(map[int]*Interned)
	}
	t.interned[i] = iv
	return iv
}

// Version returns the mutation count of the table. Index caches record
// it at build time and rebuild when it changes (it is not synchronized;
// mutate and detect from separate phases, not concurrently).
func (t *Table) Version() int64 { return t.version }

// DeleteRows removes the given row indices (any order, duplicates
// tolerated), compacting the remaining rows in order: surviving rows keep
// their relative order and are renumbered downward. Returns the number of
// rows removed. Out-of-range indices fail without modifying the table.
func (t *Table) DeleteRows(rows ...int) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	drop := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= len(t.rows) {
			return 0, fmt.Errorf("table %q: delete row %d out of range [0,%d)", t.name, r, len(t.rows))
		}
		drop[r] = true
	}
	kept := t.rows[:0]
	for i, row := range t.rows {
		if !drop[i] {
			kept = append(kept, row)
		}
	}
	removed := len(t.rows) - len(kept)
	for i := len(kept); i < len(t.rows); i++ {
		t.rows[i] = nil
	}
	t.rows = kept
	// Compact the coded views the same way: surviving rows keep their
	// IDs (dictionaries are never renumbered), only row positions shift.
	for _, iv := range t.interned {
		keptIDs := iv.IDs[:0]
		for i, id := range iv.IDs {
			if !drop[i] {
				keptIDs = append(keptIDs, id)
			}
		}
		iv.IDs = keptIDs
	}
	t.version++
	return removed, nil
}

// Row returns a copy of the row.
func (t *Table) Row(i int) []string {
	cp := make([]string, len(t.rows[i]))
	copy(cp, t.rows[i])
	return cp
}

// Column returns a copy of the named column's values in row order.
func (t *Table) Column(name string) ([]string, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return nil, fmt.Errorf("table %q: no column %q", t.name, name)
	}
	out := make([]string, len(t.rows))
	for r := range t.rows {
		out[r] = t.rows[r][i]
	}
	return out, nil
}

// ColumnByIndex returns a copy of the column values at index i.
func (t *Table) ColumnByIndex(i int) []string {
	out := make([]string, len(t.rows))
	for r := range t.rows {
		out[r] = t.rows[r][i]
	}
	return out
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := MustNew(t.name, t.columns)
	c.rows = make([][]string, len(t.rows))
	for i, r := range t.rows {
		row := make([]string, len(r))
		copy(row, r)
		c.rows[i] = row
	}
	return c
}

// Cell addressing: a CellRef names one cell of one table, used in
// violation reports ("four cells" for a variable-PFD violation).
type CellRef struct {
	Row    int    `json:"row"`
	Column string `json:"column"`
}

// String renders the reference as t[row][col].
func (c CellRef) String() string {
	return fmt.Sprintf("[%d].%s", c.Row, c.Column)
}

// Less orders cell references by row then column, for stable output.
func (c CellRef) Less(d CellRef) bool {
	if c.Row != d.Row {
		return c.Row < d.Row
	}
	return c.Column < d.Column
}

// SortCellRefs sorts refs in place by (row, column).
func SortCellRefs(refs []CellRef) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
}

// NormalizeCell canonicalizes line endings inside one cell value: \r\n
// becomes \n, repeatedly, until the cell contains no \r\n sequence (a run
// of carriage returns before a newline collapses entirely, since each
// replacement can expose a new \r\n from a preceding \r). encoding/csv
// performs only a single sequential pass for quoted fields it reads, so
// composed sequences like \r\r\n come out half normalized, and cells
// written with an embedded \r\n come back as \n — such cells can never
// survive a write/read round trip. Applying NormalizeCell at every
// ingestion boundary (ReadCSV, streamed rows) makes round trips exact:
// the \r\n-free canonical form is a fixed point of the CSV reader.
func NormalizeCell(s string) string {
	for strings.Contains(s, "\r\n") {
		s = strings.ReplaceAll(s, "\r\n", "\n")
	}
	return s
}

func normalizeRecord(rec []string) {
	for i, c := range rec {
		rec[i] = NormalizeCell(c)
	}
}

// ReadCSV loads a table from CSV data. The first record is the header.
// Cell values are normalized with NormalizeCell, so loaded tables always
// survive a WriteCSV/ReadCSV round trip (see the WriteCSV limitations for
// the one remaining single-column empty-cell case).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	normalizeRecord(header)
	t, err := New(name, header)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv row %d: %w", t.NumRows()+2, err)
		}
		// Pad or truncate ragged rows to schema width.
		switch {
		case len(rec) < len(header):
			padded := make([]string, len(header))
			copy(padded, rec)
			rec = padded
		case len(rec) > len(header):
			rec = rec[:len(header)]
		}
		normalizeRecord(rec)
		if err := t.Append(rec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// NameFromPath derives a table name from a file path: the base name
// without its extension. It is the naming rule of ReadCSVFile, exported
// so other loaders (e.g. the CLI's follow mode) name tables identically.
func NameFromPath(path string) string {
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	return name
}

// ReadCSVFile loads a table from a CSV file; the table is named after the
// file's base name without extension (NameFromPath).
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(NameFromPath(path), f)
}

// WriteCSV writes the table as CSV with a header record.
//
// Limitation inherited from RFC 4180 / encoding/csv: in a one-column
// table, a row whose only cell is the empty string serializes as a blank
// line, which CSV readers skip, so such cells do not survive a write/read
// round trip. Cells containing the \r\n sequence do not round-trip either
// (readers normalize it to \n), but tables loaded through ReadCSV never
// hold one: ReadCSV applies NormalizeCell to every cell. Lone carriage
// returns round-trip exactly.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to a file path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Derive appends a computed column that concatenates the named source
// columns with the separator, and returns the modified table (the
// receiver, for chaining). It is the reduction from multi-attribute FDs
// (the paper's X → Y over attribute sets) to the single-attribute engine:
// a PFD over the derived column expresses a composite-key dependency, and
// detection works unchanged because the derived column is a real column.
func (t *Table) Derive(name string, cols []string, sep string) (*Table, error) {
	if _, dup := t.colIdx[name]; dup {
		return nil, fmt.Errorf("table %q: derived column %q already exists", t.name, name)
	}
	idxs := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.colIdx[c]
		if !ok {
			return nil, fmt.Errorf("table %q: no column %q to derive from", t.name, c)
		}
		idxs[i] = j
	}
	t.colIdx[name] = len(t.columns)
	t.columns = append(t.columns, name)
	t.version++
	parts := make([]string, len(idxs))
	for r := range t.rows {
		for i, j := range idxs {
			parts[i] = t.rows[r][j]
		}
		t.rows[r] = append(t.rows[r], strings.Join(parts, sep))
	}
	return t, nil
}

// FromRows builds a table from a header and rows; convenient in tests.
func FromRows(name string, columns []string, rows [][]string) (*Table, error) {
	t, err := New(name, columns)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := t.Append(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FromRowsOwned builds a table that takes ownership of rows without
// copying them: the caller must not retain or mutate rows (or any row
// slice) after the call. It exists for boot paths that render fresh row
// slices per shard — FromRows would immediately copy each one again.
func FromRowsOwned(name string, columns []string, rows [][]string) (*Table, error) {
	t, err := New(name, columns)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != len(t.columns) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", name, i, len(r), len(t.columns))
		}
	}
	t.rows = rows
	t.version = int64(len(rows))
	return t, nil
}

// MustFromRows is FromRows that panics on error.
func MustFromRows(name string, columns []string, rows [][]string) *Table {
	t, err := FromRows(name, columns, rows)
	if err != nil {
		panic(err)
	}
	return t
}
