// Seeded input generation: tables, ground truth and op scripts. The
// seed is the only source of randomness; the server sees nothing but the
// CSVs and delta bodies built here.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// subSeed derives an independent, reproducible seed for one purpose
// (a session's table, its append pool, a client's script) from the run
// seed, so adding a consumer never shifts another's stream.
func subSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	// splitmix64 finalizer: FNV alone leaves nearby seeds correlated.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// tableSpec names one generated table.
type tableSpec struct {
	Family  string  // phone, name, zip, addresses
	Rows    int     // initial rows
	Skew    float64 // Zipf skew of block keys (phone only; 0 = uniform)
	ErrRate float64 // injected-error rate of the initial rows
}

// rhsColumns lists, per family, the determined columns an update op
// overwrites (the LHS stays fixed so a row's clean record stays valid).
var rhsColumns = map[string][]string{
	"phone":     {"state"},
	"name":      {"gender"},
	"zip":       {"city", "state"},
	"addresses": {"state"},
}

func genDataset(spec tableSpec, n int, errRate float64, seed int64) *datagen.Dataset {
	switch spec.Family {
	case "phone":
		return datagen.PhoneStateSkewed(n, errRate, seed, spec.Skew)
	case "name":
		return datagen.NameGender(n, errRate, seed)
	case "zip":
		return datagen.ZipCity(n, errRate, seed)
	case "addresses":
		return datagen.Addresses(n, errRate, seed)
	}
	panic("bench: unknown table family " + spec.Family)
}

// rowsAndClean copies a dataset's rows and rebuilds each row's clean
// record by undoing the injected errors.
func rowsAndClean(ds *datagen.Dataset) (rows, clean [][]string) {
	n := ds.Table.NumRows()
	rows = make([][]string, n)
	clean = make([][]string, n)
	for r := 0; r < n; r++ {
		rows[r] = ds.Table.Row(r)
		clean[r] = rows[r] // shared until an injected error says otherwise
	}
	own := make(map[int]bool, len(ds.Injected))
	for _, e := range ds.Injected {
		ci, _ := ds.Table.ColIndex(e.Cell.Column)
		r := e.Cell.Row
		if !own[r] {
			own[r] = true
			clean[r] = slices.Clone(rows[r])
		}
		clean[r][ci] = e.Clean
	}
	return rows, clean
}

// model is the bench's own image of one session's table: the rows the
// script has produced so far, each row's clean record (what it would hold
// without injected or scripted errors), and the append pool. It is the
// reference every server output is checked against, and it is written
// against plain slices so it shares no mutation code with the engine.
type model struct {
	name    string
	family  string
	columns []string
	rows    [][]string
	clean   [][]string

	pool, poolClean [][]string
	poolNext        int

	// dirtyShare is the share of dirty rows update ops steer towards.
	dirtyShare float64
	dirty      int // rows currently differing from their clean record
}

// appendPoolErrRate is the dirty share of streamed-in rows.
const appendPoolErrRate = 0.01

// newModel generates a session's initial table and append pool.
func newModel(name string, spec tableSpec, poolRows int, seed int64) (*model, []byte, error) {
	ds := genDataset(spec, spec.Rows, spec.ErrRate, subSeed(seed, name, "table"))
	m := &model{name: name, family: spec.Family, columns: ds.Table.Columns(), dirtyShare: spec.ErrRate}
	m.rows, m.clean = rowsAndClean(ds)
	rng := rand.New(rand.NewSource(subSeed(seed, name, "dirty")))
	m.settleDirty(m.rows, m.clean, spec.ErrRate, rng)
	m.dirty = len(m.dirtyRows())
	if poolRows > 0 {
		pool := genDataset(spec, poolRows, appendPoolErrRate, subSeed(seed, name, "pool"))
		m.pool, m.poolClean = rowsAndClean(pool)
		m.settleDirty(m.pool, m.poolClean, appendPoolErrRate, rng)
	}
	t, err := table.FromRows(name, m.columns, m.rows)
	if err != nil {
		return nil, nil, err
	}
	var csv bytes.Buffer
	if err := t.WriteCSV(&csv); err != nil {
		return nil, nil, err
	}
	return m, csv.Bytes(), nil
}

// settleDirty makes exactly round(share × rows) rows dirty. datagen
// injects each error independently, so the count it hands back is
// binomial; the cost of a delta on the seed code grows with the size of
// the violation set, and leaving that ±6% in would show up as seed-to-seed
// spread in every latency. Surplus dirty rows are restored to their clean
// record; missing ones get another row's value in a determined column.
func (m *model) settleDirty(rows, clean [][]string, share float64, rng *rand.Rand) {
	want := int(share*float64(len(rows)) + 0.5)
	var dirty, tidy []int
	for r := range rows {
		if slices.Equal(rows[r], clean[r]) {
			tidy = append(tidy, r)
		} else {
			dirty = append(dirty, r)
		}
	}
	rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
	for len(dirty) > want {
		r := dirty[len(dirty)-1]
		dirty = dirty[:len(dirty)-1]
		rows[r] = clean[r]
	}
	cols := rhsColumns[m.family]
	for n := len(dirty); n < want && len(tidy) > 0; {
		r := tidy[rng.Intn(len(tidy))]
		ci := m.colIndex(cols[rng.Intn(len(cols))])
		v := clean[rng.Intn(len(clean))][ci]
		if v == clean[r][ci] || !slices.Equal(rows[r], clean[r]) {
			continue
		}
		row := slices.Clone(rows[r])
		row[ci] = v
		rows[r] = row
		n++
	}
}

func (m *model) colIndex(name string) int {
	for i, c := range m.columns {
		if c == name {
			return i
		}
	}
	panic("bench: model " + m.name + " has no column " + name)
}

func (m *model) isDirty(r int) bool { return !slices.Equal(m.rows[r], m.clean[r]) }

// dirtyRows is the ground truth the final violation set is scored
// against.
func (m *model) dirtyRows() map[int]bool {
	out := make(map[int]bool)
	for r := range m.rows {
		if m.isDirty(r) {
			out[r] = true
		}
	}
	return out
}

// apply mirrors the documented delta semantics: appends extend, updates
// overwrite one cell, deletes drop a set of rows and renumber the
// survivors downward.
func (m *model) apply(b stream.Batch, cleanOf [][]string) {
	next := 0
	count := func(r int) int {
		if m.isDirty(r) {
			return 1
		}
		return 0
	}
	for _, op := range b {
		switch op.Kind {
		case stream.OpAppend:
			for _, r := range op.Rows {
				m.rows = append(m.rows, append([]string(nil), r...))
				m.clean = append(m.clean, cleanOf[next])
				m.dirty += count(len(m.rows) - 1)
				next++
			}
		case stream.OpUpdate:
			ci := m.colIndex(op.Column)
			m.dirty -= count(op.Row)
			row := append([]string(nil), m.rows[op.Row]...)
			row[ci] = op.Value
			m.rows[op.Row] = row
			m.dirty += count(op.Row)
		case stream.OpDelete:
			drop := make(map[int]bool, len(op.Drop))
			for _, r := range op.Drop {
				drop[r] = true
			}
			keep := 0
			for r := range m.rows {
				if drop[r] {
					m.dirty -= count(r)
					continue
				}
				m.rows[keep], m.clean[keep] = m.rows[r], m.clean[r]
				keep++
			}
			m.rows, m.clean = m.rows[:keep], m.clean[:keep]
		}
	}
}

// opKind is one request class of a script.
type opKind string

const (
	opAppend opKind = "append"
	opUpdate opKind = "update"
	opDelete opKind = "delete"
	opSince  opKind = "since" // GET violations?since=<the session's poll cursor>
	opPage   opKind = "page"  // GET violations?limit=100&offset=k
)

// scriptOp is one step of a client's script. Write ops carry the delta
// body exactly as it goes on the wire.
type scriptOp struct {
	Session int     `json:"session"` // index into the client's sessions
	Kind    opKind  `json:"kind"`
	Body    []byte  `json:"body,omitempty"` // {"deltas":[...]}
	Rows    int     `json:"rows,omitempty"` // rows appended + updated + deleted
	Frac    float64 `json:"frac,omitempty"` // opPage: offset as a share of the violation count
	batch   stream.Batch
}

// mixEntry is one weighted op of a traffic mix; N is its size (rows
// appended, cells updated, rows deleted).
type mixEntry struct {
	Kind   opKind
	N      int
	Weight float64
}

// scriptGen produces one client's op stream over the sessions it is the
// only writer of. Each op depends only on the seed and the ops before it
// (through the models), never on a server response, so regenerating with
// the same seed replays the same script.
type scriptGen struct {
	rng      *rand.Rand
	models   []*model
	mix      []mixEntry
	pollGap  int   // emit a since poll after this many writes to a session (0 = only via mix)
	unpolled []int // writes per session since its last poll
	pending  []scriptOp
}

func newScriptGen(seed int64, models []*model, mix []mixEntry, pollGap int) *scriptGen {
	return &scriptGen{
		rng:      rand.New(rand.NewSource(seed)),
		models:   models,
		mix:      mix,
		pollGap:  pollGap,
		unpolled: make([]int, len(models)),
	}
}

func (g *scriptGen) pick() mixEntry {
	var total float64
	for _, e := range g.mix {
		total += e.Weight
	}
	x := g.rng.Float64() * total
	for _, e := range g.mix {
		if x < e.Weight {
			return e
		}
		x -= e.Weight
	}
	return g.mix[len(g.mix)-1]
}

// next returns the script's next op and, for writes, applies it to the
// session's model.
func (g *scriptGen) next() scriptOp {
	if len(g.pending) > 0 {
		op := g.pending[0]
		g.pending = g.pending[1:]
		return op
	}
	return g.build(g.rng.Intn(len(g.models)), g.pick())
}

// nextWrite returns a write op for one given session: the next entry of
// the mix that is a write. The recovery phase uses it to bring every
// session's journal to a set length before a kill.
func (g *scriptGen) nextWrite(si int) scriptOp {
	for {
		if e := g.pick(); e.Kind != opSince && e.Kind != opPage {
			return g.build(si, e)
		}
	}
}

func (g *scriptGen) build(si int, e mixEntry) scriptOp {
	m := g.models[si]
	op := scriptOp{Session: si, Kind: e.Kind, Rows: e.N}
	switch e.Kind {
	case opSince:
		g.unpolled[si] = 0
		return op
	case opPage:
		op.Frac = g.rng.Float64()
		return op
	case opAppend:
		rows := make([][]string, e.N)
		cleanOf := make([][]string, e.N)
		for i := range rows {
			rows[i], cleanOf[i] = m.pool[m.poolNext], m.poolClean[m.poolNext]
			m.poolNext = (m.poolNext + 1) % len(m.pool)
		}
		op.batch = stream.Batch{stream.AppendRows(rows...)}
		m.apply(op.batch, cleanOf)
	case opUpdate:
		// One cell at a time, so each choice sees the dirty count the
		// previous one left.
		for i := 0; i < e.N; i++ {
			u := stream.Batch{g.updateOp(m)}
			m.apply(u, nil)
			op.batch = append(op.batch, u...)
		}
	case opDelete:
		if op.Rows > len(m.rows)/2 {
			op.Rows = len(m.rows) / 2
		}
		seen := make(map[int]bool, op.Rows)
		drop := make([]int, 0, op.Rows)
		for len(drop) < op.Rows {
			if r := g.rng.Intn(len(m.rows)); !seen[r] {
				seen[r] = true
				drop = append(drop, r)
			}
		}
		sort.Ints(drop)
		op.batch = stream.Batch{stream.DeleteRows(drop...)}
		m.apply(op.batch, nil)
	}
	op.Body = deltaBody(op.batch)
	g.unpolled[si]++
	if g.pollGap > 0 && g.unpolled[si] >= g.pollGap {
		g.unpolled[si] = 0
		g.pending = append(g.pending, scriptOp{Session: si, Kind: opSince})
	}
	return op
}

// deltaBody renders a batch as the body of POST …/deltas.
func deltaBody(b stream.Batch) []byte {
	body, err := json.Marshal(struct {
		Deltas stream.Batch `json:"deltas"`
	}{b})
	if err != nil {
		panic(err) // a Batch of strings and ints cannot fail to marshal
	}
	return body
}

// updateOp overwrites one determined cell. It steers the table's dirty
// share back to where it started: above it, the op repairs a dirty row
// (writes the clean value); at or below it, the op dirties a random row
// with another row's value. Appends arrive dirtier than the table, so
// without this the violation set — and with it the cost of every later
// delta — would grow with the length of the script.
func (g *scriptGen) updateOp(m *model) stream.Op {
	cols := rhsColumns[m.family]
	n := len(m.rows)
	if float64(m.dirty) > m.dirtyShare*float64(n) {
		start := g.rng.Intn(n)
		for i := 0; i < n; i++ {
			r := (start + i) % n
			for _, col := range cols {
				if ci := m.colIndex(col); m.rows[r][ci] != m.clean[r][ci] {
					return stream.UpdateCell(r, col, m.clean[r][ci])
				}
			}
		}
	}
	col := cols[g.rng.Intn(len(cols))]
	return stream.UpdateCell(g.rng.Intn(n), col, m.clean[g.rng.Intn(n)][m.colIndex(col)])
}
