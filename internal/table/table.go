// Package table is the relational substrate of ANMAT: an in-memory table
// with a named schema, string-typed cells, row/cell addressing, and CSV
// input/output. Discovery and detection operate on this representation.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/anmat/anmat/internal/intern"
)

// Table is a relation instance: an ordered list of named columns, each
// stored dictionary-coded — one append-only intern.Dict of the distinct
// values the column has ever held and one ID per row. There is no other
// cell storage: Cell, Row and WriteCSV decode it, mutations write IDs, and
// InternedColumn hands the storage itself to the analyses. All cells are
// strings; type inference happens in the profiler.
type Table struct {
	name    string
	columns []string
	colIdx  map[string]int
	cols    []*Interned
	// version counts mutations (SetCell, Append, Derive) so index caches
	// built over the table can detect staleness. See Version.
	version int64

	// spare holds the ID buffers the last released View handed back, for
	// the next Freeze to copy into (see View.Release, the one call that
	// may race with the table's own, hence the lock).
	spareMu sync.Mutex
	spare   []frozen
}

// Interned is one column of a table: IDs[r] is the dense dictionary ID of
// the cell at row r, and two cells of the column are equal iff their IDs
// are. It is the table's own storage, shared with every caller of
// InternedColumn: treat it as read-only and follow the table's
// mutate/detect phase discipline.
//
// The dictionary outlives the rows. Deleting or overwriting rows compacts
// or rewrites IDs but never renumbers the dictionary, so per-ID caches
// (DFA verdicts, extraction memos) survive — and so a long-lived column's
// dictionary lists values no row holds any more, in the order the table
// first saw them. Whoever walks Dict.Values() must skip the entries whose
// count (Counts) is zero and must not let dictionary order decide
// anything a fresh table of the same rows would decide differently.
type Interned struct {
	Dict *intern.Dict
	IDs  []uint32
}

// Value returns the cell string for row r.
func (iv *Interned) Value(r int) string { return iv.Dict.Value(iv.IDs[r]) }

// Counts returns, per dictionary ID, the number of rows holding the value
// (zero for a value every row has lost): one pass over the IDs, so that
// mutations keep nothing in step for it.
func (iv *Interned) Counts() []int {
	counts := make([]int, iv.Dict.Len())
	for _, id := range iv.IDs {
		counts[id]++
	}
	return counts
}

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
	t := &Table{name: name, columns: slices.Clone(columns), colIdx: idx, cols: make([]*Interned, len(columns))}
	for i := range t.cols {
		t.cols[i] = &Interned{Dict: intern.NewDict()}
	}
	return t, nil
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
func (t *Table) NumRows() int { return len(t.cols[0].IDs) }

// ColIndex returns the index of the named column and whether it exists.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// Append adds a row. The row must have exactly one cell per column; the
// table keeps none of its strings.
func (t *Table) Append(row []string) error {
	if len(row) != len(t.columns) {
		return fmt.Errorf("table %q: row has %d cells, want %d", t.name, len(row), len(t.columns))
	}
	for i, c := range t.cols {
		c.IDs = append(c.IDs, c.Dict.Intern(row[i]))
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
func (t *Table) Cell(row, col int) string { return t.cols[col].Value(row) }

// CellByName returns the value at (row, column name).
func (t *Table) CellByName(row int, col string) (string, error) {
	i, ok := t.colIdx[col]
	if !ok {
		return "", fmt.Errorf("table %q: no column %q", t.name, col)
	}
	return t.cols[i].Value(row), nil
}

// SetCell overwrites the value at (row, column index). It is used by the
// repair engine and by error injection in the data generators.
func (t *Table) SetCell(row, col int, v string) {
	c := t.cols[col]
	c.IDs[row] = c.Dict.Intern(v)
	t.version++
}

// InternedColumn returns the column at index i — the storage, not a copy.
func (t *Table) InternedColumn(i int) *Interned { return t.cols[i] }

// Version returns the mutation count of the table. Index caches record
// it at build time and rebuild when it changes (it is not synchronized;
// mutate and detect from separate phases, not concurrently).
func (t *Table) Version() int64 { return t.version }

// DeleteRows removes the given row indices (any order, duplicates
// tolerated), compacting the remaining rows in order: surviving rows keep
// their relative order and are renumbered downward, and keep their IDs
// (dictionaries are never renumbered). Returns the number of rows removed.
// Out-of-range indices fail without modifying the table.
func (t *Table) DeleteRows(rows ...int) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	n := t.NumRows()
	for _, r := range rows {
		if r < 0 || r >= n {
			return 0, fmt.Errorf("table %q: delete row %d out of range [0,%d)", t.name, r, n)
		}
	}
	drop := slices.Clone(rows)
	slices.Sort(drop)
	drop = slices.Compact(drop)
	for _, c := range t.cols {
		// Close each gap by moving the run of survivors behind it.
		w := drop[0]
		for k, d := range drop {
			end := n
			if k+1 < len(drop) {
				end = drop[k+1]
			}
			w += copy(c.IDs[w:], c.IDs[d+1:end])
		}
		c.IDs = c.IDs[:w]
	}
	t.version++
	return len(drop), nil
}

// Row returns a copy of the row.
func (t *Table) Row(i int) []string {
	return t.appendRow(make([]string, 0, len(t.cols)), i)
}

func (t *Table) appendRow(dst []string, i int) []string {
	for _, c := range t.cols {
		dst = append(dst, c.Value(i))
	}
	return dst
}

// Column returns a copy of the named column's values in row order.
func (t *Table) Column(name string) ([]string, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return nil, fmt.Errorf("table %q: no column %q", t.name, name)
	}
	return t.ColumnByIndex(i), nil
}

// ColumnByIndex returns a copy of the column values at index i.
func (t *Table) ColumnByIndex(i int) []string {
	c := t.cols[i]
	out := make([]string, len(c.IDs))
	for r := range out {
		out[r] = c.Value(r)
	}
	return out
}

// Clone returns a deep copy of the table: the same rows under fresh
// dictionaries, which hold the values in the rows and no others.
func (t *Table) Clone() *Table {
	c := MustNew(t.name, t.columns)
	for i, col := range t.cols {
		cc := c.cols[i]
		cc.IDs = make([]uint32, len(col.IDs))
		for r := range col.IDs {
			cc.IDs[r] = cc.Dict.Intern(col.Value(r))
		}
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

// MaxColumns bounds the width of a table read from CSV. Discovery mines
// every ordered pair of columns, so its work grows with the square of the
// width; ReadCSV refuses a wider header before it reads any row.
const MaxColumns = 256

// ReadCSV loads a table from CSV data. The first record is the header,
// at most MaxColumns wide. Cell values are normalized with NormalizeCell,
// so loaded tables always survive a WriteCSV/ReadCSV round trip (see the
// WriteCSV limitations for the one remaining single-column empty-cell
// case).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true // Append interns the cells and keeps no record
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	if len(header) > MaxColumns {
		return nil, fmt.Errorf("csv header has %d columns, more than the %d a table may have", len(header), MaxColumns)
	}
	normalizeRecord(header)
	t, err := New(name, header)
	if err != nil {
		return nil, err
	}
	width := len(header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv row %d: %w", t.NumRows()+2, err)
		}
		// Pad or truncate ragged rows to schema width.
		for len(rec) < width {
			rec = append(rec, "")
		}
		rec = rec[:width]
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
	row := make([]string, 0, len(t.cols))
	for r := range t.cols[0].IDs {
		row = t.appendRow(row[:0], r)
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
	derived := &Interned{Dict: intern.NewDict(), IDs: make([]uint32, t.NumRows())}
	parts := make([]string, len(idxs))
	for r := range derived.IDs {
		for i, j := range idxs {
			parts[i] = t.cols[j].Value(r)
		}
		derived.IDs[r] = derived.Dict.Intern(strings.Join(parts, sep))
	}
	t.colIdx[name] = len(t.columns)
	t.columns = append(t.columns, name)
	t.cols = append(t.cols, derived)
	t.version++
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

// MustFromRows is FromRows that panics on error.
func MustFromRows(name string, columns []string, rows [][]string) *Table {
	t, err := FromRows(name, columns, rows)
	if err != nil {
		panic(err)
	}
	return t
}
