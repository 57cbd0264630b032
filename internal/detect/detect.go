// Package detect is the error-detection engine of Section 3. It evaluates
// a set of PFDs against a table and reports violations:
//
//   - constant rows: scan (or, with the pattern index, probe) the LHS
//     column for tuples matching tp[A] whose RHS differs from tp[B];
//   - variable rows: group matching tuples into blocks by constrained key
//     and flag intra-block RHS disagreements (or run the quadratic
//     reference when blocking is disabled, for the ablation).
//
// The engine also produces repair suggestions: constant violations repair
// to the rule's constant; variable violations repair to the block's
// majority RHS value.
//
// A Detector is safe for concurrent use: its per-column indexes and
// per-pattern passes are built at most once each behind a singleflight-
// style cache, so any
// number of goroutines (or the worker pool inside DetectAllContext) can
// share one Detector and one set of indexes. Detection across rules fans
// out per tableau row and merges through a single total order, so the
// output is byte-identical at every parallelism level. The one
// requirement is that the table is not mutated while a Detector built on
// it is in use — build a fresh Detector after applying repairs. (An
// incremental engine's ConstMatch tests are the exception; see Detector.)
package detect

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// Options configures the engine; the zero value enables all optimizations.
type Options struct {
	// DisableIndex forces full scans for constant rows.
	DisableIndex bool
	// DisableBlocking forces the quadratic pair check for variable rows.
	DisableBlocking bool
	// AllPairs reports every conflicting pair inside a block instead of
	// the linear representative pairing. It matches the brute-force
	// reference output and is used in equivalence tests.
	AllPairs bool
}

// Detector evaluates PFDs against one table. The hot path runs over the
// table's dictionary-coded columns (table.InternedColumn): pattern
// automata run once per *distinct* value — over a column's dictionary,
// not its rows — a constant row then visits only the rows of the values
// its pattern matched, through the column's rows-by-ID index, and the
// per-row loops compare uint32 dictionary IDs instead of strings. Every
// per-column and per-(column, pattern) product is cached behind a
// singleflight slot, so the Detector is safe for concurrent use by any
// number of goroutines while its table does not change. After a
// mutation (see Stale) the constant-row tests (ConstMatch) keep
// answering, growing to the IDs it added; the row index and the blocks,
// which hold row numbers, do not.
type Detector struct {
	t       *table.Table
	opts    Options
	version int64 // table.Version() at build time; see Stale

	mu       sync.Mutex                      // guards the cache maps (not their slots)
	verdicts map[matchKey]*slot[*live[bool]] // the DFA verdict of every dictionary ID
	anchored map[anchorKey]*slot[*anchored]  // shared by the constant rows of one anchored shape
	rowsOf   map[int]*slot[rowIndex]         // per LHS column
	blocked  map[matchKey]*slot[[]Block]     // shared by variable-row detection, repairs and engine bootstrap
}

// matchKey identifies one (column, pattern) pass.
type matchKey struct {
	col int
	pat string // pattern.Pattern.Key() / pattern.Constrained.Key()
}

// anchorKey identifies one anchored pass: column, literal length, rest.
type anchorKey struct {
	col, n int
	rest   string
}

// slot holds one cached product. The first goroutine to need it builds it
// inside the Once; concurrent callers for the same key block on that
// Once, callers for other keys proceed independently.
type slot[T any] struct {
	once sync.Once
	v    T
}

// cached returns the product under key k of one of the detector's cache
// maps, building it on demand, exactly once even under concurrent calls.
func cached[K comparable, T any](d *Detector, m map[K]*slot[T], k K, build func() T) T {
	d.mu.Lock()
	e := m[k]
	if e == nil {
		e = &slot[T]{}
		m[k] = e
	}
	d.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// New builds a detector for the table.
func New(t *table.Table, opts Options) *Detector {
	return &Detector{
		t:        t,
		opts:     opts,
		version:  t.Version(),
		verdicts: make(map[matchKey]*slot[*live[bool]]),
		anchored: make(map[anchorKey]*slot[*anchored]),
		rowsOf:   make(map[int]*slot[rowIndex]),
		blocked:  make(map[matchKey]*slot[[]Block]),
	}
}

// Table returns the table the detector evaluates.
func (d *Detector) Table() *table.Table { return d.t }

// Stale reports whether the table has been mutated since the detector
// was built. Callers holding a detector across table mutations (e.g. a
// session re-detecting after applying repairs) should rebuild when Stale
// returns true: only its ConstMatch tests still answer.
func (d *Detector) Stale() bool { return d.t.Version() != d.version }

// live is a per-dictionary-ID product of one column that grows with
// the column's dictionary: at, asked for an ID past its length, computes
// and keeps every entry up to that ID. A fresh detector's products cover
// the whole dictionary, so only a stale detector's grow, and only in the
// exclusive phase of whoever mutates the table (intern.Dict's
// discipline): an engine's batch, under its sequencer's lock.
type live[T any] struct {
	col *table.Interned
	of  func(v string) T
	v   []T
}

// newLive computes of over the column's whole dictionary.
func newLive[T any](col *table.Interned, of func(v string) T) *live[T] {
	l := &live[T]{col: col, of: of, v: make([]T, col.Dict.Len())}
	for id, v := range col.Dict.Values() {
		l.v[id] = of(v)
	}
	return l
}

// at returns the entry of ID id.
func (l *live[T]) at(id uint32) T {
	for int(id) >= len(l.v) {
		l.v = append(l.v, l.of(l.col.Dict.Value(uint32(len(l.v)))))
	}
	return l.v[id]
}

// matchVerdicts returns the cached per-dictionary-ID match verdicts of
// running emb over column col.
func (d *Detector) matchVerdicts(col int, emb pattern.Pattern) *live[bool] {
	return cached(d, d.verdicts, matchKey{col, emb.Key()}, func() *live[bool] {
		m := emb.Matcher()
		return newLive(d.t.InternedColumn(col), m.Match)
	})
}

// anchored is one pass over a column's dictionary for every constant row
// of one shape — a literal of n bytes, then a rest pattern (see
// pattern.Pattern.Anchor). slots names each ID's literal, its first n
// bytes numbered from 1 in dictionary order through lits, or holds 0
// when the rest of the value does not match.
type anchored struct {
	slots *live[uint32]
	lits  map[string]uint32
	ids   rowIndex // the IDs by slot, as the pass was built
}

// anchoredPass returns the cached anchored pass of column col for rows
// whose literal is n bytes long and whose rest is rest.
func (d *Detector) anchoredPass(col, n int, rest pattern.Pattern) *anchored {
	return cached(d, d.anchored, anchorKey{col, n, rest.Key()}, func() *anchored {
		a := &anchored{lits: make(map[string]uint32)}
		m := rest.Matcher()
		a.slots = newLive(d.t.InternedColumn(col), func(v string) uint32 {
			if len(v) < n || !m.Match(v[n:]) {
				return 0
			}
			s, ok := a.lits[v[:n]]
			if !ok {
				s = uint32(len(a.lits) + 1)
				a.lits[v[:n]] = s
			}
			return s
		})
		a.ids = indexBy(a.slots.v, len(a.lits)+1)
		return a
	})
}

// ConstMatch is a constant tableau row's LHS test per dictionary ID of
// its column. Its passes grow with the dictionary, so an engine holds one
// per constant row for its lifetime.
type ConstMatch struct {
	col  *table.Interned
	lit  string      // the row's leading literal
	pass *anchored   // the row's shape's pass, when a rest follows lit
	verd *live[bool] // the row's verdicts, when it has no leading literal
}

// ConstMatch returns the LHS test of constant rows with embedded pattern
// emb on column col. A row that is a literal and nothing else compares
// the value; an anchored row holds when the value begins with its literal
// and has a slot in its shape's pass (the rest matched); any other row
// reads its verdicts.
func (d *Detector) ConstMatch(col int, emb pattern.Pattern) ConstMatch {
	c := ConstMatch{col: d.t.InternedColumn(col)}
	lit, rest := emb.Anchor()
	switch c.lit = lit; {
	case lit == "":
		c.verd = d.matchVerdicts(col, emb)
	case rest.Key() != "":
		c.pass = d.anchoredPass(col, len(lit), rest)
	}
	return c
}

// Matches reports whether the value with dictionary ID id matches the
// row's embedded pattern.
func (c ConstMatch) Matches(id uint32) bool {
	switch {
	case c.verd != nil:
		return c.verd.at(id)
	case c.pass != nil:
		return strings.HasPrefix(c.col.Dict.Value(id), c.lit) && c.pass.slots.at(id) != 0
	}
	return c.col.Dict.Value(id) == c.lit
}

// rowIndex files positions by a dense key k, ascending in
// rows[start[k]:start[k+1]]: a column's rows by dictionary ID (an ID no
// row holds any more has an empty run), or an anchored pass's IDs by slot.
type rowIndex struct{ start, rows []int32 }

// indexBy is the counting sort of keys, each below n.
func indexBy(keys []uint32, n int) rowIndex {
	start := make([]int32, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	rows := make([]int32, len(keys))
	next := slices.Clone(start)
	for r, k := range keys {
		rows[next[k]] = int32(r)
		next[k]++
	}
	return rowIndex{start, rows}
}

// of returns the positions holding key k.
func (x rowIndex) of(k uint32) []int32 { return x.rows[x.start[k]:x.start[k+1]] }

// rowsByID returns the rows-by-ID index of column col.
func (d *Detector) rowsByID(col int) rowIndex {
	return cached(d, d.rowsOf, col, func() rowIndex {
		iv := d.t.InternedColumn(col)
		return indexBy(iv.IDs, iv.Dict.Len())
	})
}

// cols resolves the LHS/RHS column positions of a PFD.
func (d *Detector) cols(verb string, p *pfd.PFD) (li, ri int, err error) {
	li, ok := d.t.ColIndex(p.LHS)
	if !ok {
		return 0, 0, fmt.Errorf("%s %s: no column %q", verb, p.ID(), p.LHS)
	}
	ri, ok = d.t.ColIndex(p.RHS)
	if !ok {
		return 0, 0, fmt.Errorf("%s %s: no column %q", verb, p.ID(), p.RHS)
	}
	return li, ri, nil
}

// Detect returns all violations of the PFD, de-duplicated and sorted by
// first cell.
func (d *Detector) Detect(p *pfd.PFD) ([]pfd.Violation, error) {
	res, err := d.DetectAllContext(context.TODO(), []*pfd.PFD{p}, 1)
	if err != nil {
		return nil, err
	}
	return res.Violations, nil
}

// RuleStats records the detection cost of one PFD: how many tableau rows
// were evaluated, how many violations its rows rendered (before the
// de-duplication of the merge), and the cumulative wall time of its row
// tasks. Under parallel execution Duration sums the per-row task times,
// so it reads as busy time, not elapsed time.
type RuleStats struct {
	PFDID      string        `json:"pfd"`
	Rows       int           `json:"rows"`
	Violations int           `json:"violations"`
	Duration   time.Duration `json:"duration_ns"`
}

// Result pairs the merged violations of a DetectAllContext run with
// per-rule timing stats and the effective worker count.
type Result struct {
	Violations  []pfd.Violation `json:"violations"`
	Stats       []RuleStats     `json:"stats"`
	Parallelism int             `json:"parallelism"`
}

// Task is one unit of detection work: one tableau row of one rule, with
// the rule's columns resolved.
type Task struct {
	Rule   int // the rule's index in the list Run was given
	Pos    int // the row's position in the rule's tableau
	P      *pfd.PFD
	Row    tableau.Row
	LI, RI int
}

// Rendered is what Run returns: every task's rendering in (rule, tableau
// row) order, each rule's stats, and the effective worker count.
type Rendered[V any] struct {
	Tasks   []Task
	Out     [][]V
	Stats   []RuleStats
	Workers int
}

// Run is the one fan-out of detection work, under DetectAllContext,
// RepairsAllContext and the incremental engine's boot (stream.Boot). It
// resolves every rule's columns before any work starts, then renders
// each (rule, tableau row) task once over at most parallelism workers
// (0 = GOMAXPROCS), timing it. Renderings come back in (rule, row) order,
// with per-rule stats: tableau rows, violations rendered, summed busy
// time. Cancelling ctx stops the pool between tasks with an error
// wrapping ctx.Err().
func Run[V any](ctx context.Context, d *Detector, ps []*pfd.PFD, parallelism int, render func(Task) []V) (*Rendered[V], error) {
	stats := make([]RuleStats, len(ps))
	var tasks []Task
	for i, p := range ps {
		li, ri, err := d.cols("detect", p)
		if err != nil {
			return nil, err
		}
		rows := p.Tableau.Rows() // a copy: snapshot it once per rule, not per task
		stats[i] = RuleStats{PFDID: p.ID(), Rows: len(rows)}
		for pos, row := range rows {
			tasks = append(tasks, Task{Rule: i, Pos: pos, P: p, Row: row, LI: li, RI: ri})
		}
	}
	// A fixed pool of workers takes task indices in order; each writes
	// its task's slots only, so nothing locks.
	out := make([][]V, len(tasks))
	took := make([]time.Duration, len(tasks))
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(tasks)))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				if ctx.Err() != nil {
					continue
				}
				start := time.Now()
				out[ti] = render(tasks[ti])
				took[ti] = time.Since(start)
			}
		}()
	}
feed:
	for ti := range tasks {
		select {
		case jobs <- ti:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("detection cancelled: %w", err)
	}
	for ti, tk := range tasks {
		stats[tk.Rule].Violations += len(out[ti])
		stats[tk.Rule].Duration += took[ti]
	}
	return &Rendered[V]{Tasks: tasks, Out: out, Stats: stats, Workers: workers}, nil
}

// Merge concatenates per-task renderings in their order and de-duplicates
// them into the total order: the violation set they render, as every
// detection path serves it.
func Merge(lists [][]pfd.Violation) []pfd.Violation {
	merged := slices.Concat(lists...)
	if merged == nil {
		merged = []pfd.Violation{} // the empty set renders as [], not null
	}
	// Equal keys end up adjacent: a pair found through two blocks renders
	// one key (a cell flagged by two tableau rows of the same PFD stays
	// distinct because the rule differs).
	SortViolations(merged)
	return slices.CompactFunc(merged, func(a, b pfd.Violation) bool { return CompareViolations(&a, &b) == 0 })
}

// DetectAllContext evaluates several PFDs on Run's per-tableau-row
// fan-out (parallelism bounds the workers, 0 = GOMAXPROCS) and merges the
// renderings through the one total order, so the violation list is
// byte-identical at every parallelism level. Cancelling ctx stops the
// pool between row tasks and returns an error wrapping ctx.Err().
func (d *Detector) DetectAllContext(ctx context.Context, ps []*pfd.PFD, parallelism int) (*Result, error) {
	run, err := Run(ctx, d, ps, parallelism, func(tk Task) []pfd.Violation {
		if tk.Row.Variable() {
			return d.detectVariable(tk.P, tk.Row, tk.LI, tk.RI)
		}
		return d.detectConstant(tk.P, tk.Row, tk.LI, tk.RI)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Violations: Merge(run.Out), Stats: run.Stats, Parallelism: run.Workers}, nil
}

func (d *Detector) detectConstant(p *pfd.PFD, row tableau.Row, li, ri int) []pfd.Violation {
	riv := d.t.InternedColumn(ri)
	src := pfd.SourceOf(p, row)
	var out []pfd.Violation
	for _, r := range d.ConstantHits(row, li, ri) {
		out = append(out, src.Constant(r, riv.Value(r)))
	}
	return out
}

// ConstantHits returns, ascending, the rows that violate a constant
// tableau row: the LHS matches tp[A] and the RHS differs from tp[B].
func (d *Detector) ConstantHits(row tableau.Row, li, ri int) []int {
	emb := row.LHS.Embedded()
	liv, riv := d.t.InternedColumn(li), d.t.InternedColumn(ri)
	var hits []int
	if d.opts.DisableIndex {
		// Ablation: match every row individually, no dictionary memo.
		m := emb.Matcher()
		for r, id := range liv.IDs {
			if m.Match(liv.Dict.Value(id)) && riv.Value(r) != row.RHS {
				hits = append(hits, r)
			}
		}
		return hits
	}
	// The RHS constant compares as a dictionary ID: absent from the
	// dictionary means no row holds it, so every matching row violates.
	constID, haveConst := riv.Dict.Lookup(row.RHS)
	idx := d.rowsByID(li)
	runs := 0
	visit := func(id uint32) {
		runs++
		for _, r := range idx.of(id) {
			if !haveConst || riv.IDs[r] != constID {
				hits = append(hits, int(r))
			}
		}
	}
	// A leading literal visits only the IDs under it.
	switch c := d.ConstMatch(li, emb); {
	case c.pass != nil:
		if s := c.pass.lits[c.lit]; s != 0 {
			for _, id := range c.pass.ids.of(s) {
				visit(uint32(id))
			}
		}
	case c.verd != nil:
		for id, ok := range c.verd.v {
			if ok {
				visit(uint32(id))
			}
		}
	default:
		if id, ok := liv.Dict.Lookup(c.lit); ok {
			visit(id)
		}
	}
	if runs > 1 {
		sort.Ints(hits) // each run is ascending; several are not
	}
	return hits
}

func (d *Detector) detectVariable(p *pfd.PFD, row tableau.Row, li, ri int) []pfd.Violation {
	liv, riv := d.t.InternedColumn(li), d.t.InternedColumn(ri)
	src := pfd.SourceOf(p, row)
	if d.opts.DisableBlocking {
		// Quadratic reference: restrict to rows matching the embedded
		// pattern first (the paper's index optimization applies here too
		// unless the index is also disabled).
		emb := row.LHS.Embedded()
		var cand []int
		if !d.opts.DisableIndex {
			verd := d.matchVerdicts(li, emb)
			for r, id := range liv.IDs {
				if verd.v[id] {
					cand = append(cand, r)
				}
			}
		} else {
			m := emb.Matcher()
			for r, id := range liv.IDs {
				if m.Match(liv.Dict.Value(id)) {
					cand = append(cand, r)
				}
			}
		}
		var out []pfd.Violation
		for a := 0; a < len(cand); a++ {
			for b := a + 1; b < len(cand); b++ {
				i, j := cand[a], cand[b]
				if riv.IDs[i] == riv.IDs[j] {
					continue
				}
				if row.LHS.EquivalentUnder(liv.Value(i), liv.Value(j)) {
					out = append(out, src.Pair(i, j, riv.Value(i), riv.Value(j)))
				}
			}
		}
		return out
	}
	var out []pfd.Violation
	for _, b := range d.Blocks(li, row.LHS) {
		out = b.appendConflicts(out, &src, riv, !d.opts.AllPairs)
	}
	return out
}

// Block is one blocking bucket over an interned LHS column: the rows
// sharing one constrained key. Conflict checks compare the rows' RHS
// dictionary IDs; strings are decoded only when a violation is rendered.
type Block struct {
	Key  string
	Rows []int // ascending (built in row order)
}

// Blocks partitions the rows matching q into buckets by constrained key,
// sorted by key. Keys are extracted once per distinct LHS value into one
// slab — value id's keys are keys[off[id]:off[id+1]] — and rows are filed
// from it, so extraction costs per distinct value however many rows
// repeat it. The partition is cached and shared: detection, repairs and an
// engine bootstrapped from the detector read the same one, and none of
// them modifies it.
func (d *Detector) Blocks(li int, q pattern.Constrained) []Block {
	return cached(d, d.blocked, matchKey{li, q.Key()}, func() []Block {
		iv := d.t.InternedColumn(li)
		vals := iv.Dict.Values()
		off := make([]int32, len(vals)+1)
		keys := make([]string, 0, len(vals))
		for id, v := range vals {
			keys = q.AppendExtract(keys, v)
			off[id+1] = int32(len(keys))
		}
		m := make(map[string]*Block)
		for r, id := range iv.IDs {
			for _, k := range keys[off[id]:off[id+1]] {
				b := m[k]
				if b == nil {
					b = &Block{Key: k}
					m[k] = b
				}
				b.Rows = append(b.Rows, r)
			}
		}
		out := make([]Block, 0, len(m))
		for _, b := range m {
			out = append(out, *b)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	})
}

// rhsGroup is one RHS-agreement class inside a block.
type rhsGroup struct {
	val  string
	rows []int // ascending
}

// rhsGroups splits a block by RHS value, sorted by value — the order the
// blocking reference iterates conflict groups in. Grouping compares
// dictionary IDs; each distinct ID decodes to its string once.
func (b *Block) rhsGroups(riv *table.Interned) []rhsGroup {
	idx := make(map[uint32]int, 2)
	var groups []rhsGroup
	for _, r := range b.Rows {
		id := riv.IDs[r]
		gi, ok := idx[id]
		if !ok {
			gi = len(groups)
			idx[id] = gi
			groups = append(groups, rhsGroup{val: riv.Dict.Value(id)})
		}
		groups[gi].rows = append(groups[gi].rows, r)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].val < groups[j].val })
	return groups
}

// majorityGroup returns the index of the largest group; ties break to the
// lexicographically smallest value (the groups arrive value-sorted).
func majorityGroup(groups []rhsGroup) int {
	best := 0
	for i := 1; i < len(groups); i++ {
		if len(groups[i].rows) > len(groups[best].rows) {
			best = i
		}
	}
	return best
}

// appendConflicts renders the block's disagreeing pairs. With firstOnly
// set each row outside the majority RHS group pairs once against the
// majority group's first row (the likely-clean witness), keeping the
// output linear in the number of erroneous cells; otherwise the full
// cross product is produced (the reference semantics the equivalence
// tests compare against).
func (b *Block) appendConflicts(out []pfd.Violation, src *pfd.Source, riv *table.Interned, firstOnly bool) []pfd.Violation {
	groups := b.rhsGroups(riv)
	if len(groups) < 2 {
		return out
	}
	if firstOnly {
		mi := majorityGroup(groups)
		rep, maj := groups[mi].rows[0], groups[mi].val
		for gi := range groups {
			if gi == mi {
				continue
			}
			for _, r := range groups[gi].rows {
				out = append(out, src.Pair(rep, r, maj, groups[gi].val))
			}
		}
		return out
	}
	for a := 0; a < len(groups); a++ {
		for c := a + 1; c < len(groups); c++ {
			for _, ri := range groups[a].rows {
				for _, rj := range groups[c].rows {
					out = append(out, src.Pair(ri, rj, groups[a].val, groups[c].val))
				}
			}
		}
	}
	return out
}

// SortViolations sorts violations into the engine's one total order:
// cell-less violations first (ordered by key among themselves), then
// cell-bearing violations by first cell, ties broken by key. Every
// detection path — sequential, parallel, and the incremental maintenance
// engine — renders through this order, so any two engines that agree on
// the violation *set* produce byte-identical output.
//
// The cell-less tier matters for the order to be a *strict weak* order:
// an earlier comparator fell through to the key whenever either side had
// no cells, which is inconsistent with the cell comparison (a cell-less
// violation could sort between two cell-bearing ones that compare by
// cell), and an inconsistent comparator makes sort output depend on the
// input permutation.
func SortViolations(vs []pfd.Violation) {
	if len(vs) < 2 {
		return
	}
	sort.Stable(violationSort(vs))
}

type violationSort []pfd.Violation

func (s violationSort) Len() int           { return len(s) }
func (s violationSort) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s violationSort) Less(i, j int) bool { return CompareViolations(&s[i], &s[j]) < 0 }

// CompareViolations is the total order SortViolations sorts by, as a
// three-way comparison; zero means the two share a violation key. It
// renders nothing, so merging two sorted lists costs no allocation.
func CompareViolations(a, b *pfd.Violation) int {
	aCells, bCells := len(a.Cells) > 0, len(b.Cells) > 0
	if aCells != bCells {
		if aCells {
			return 1 // cell-less violations form their own leading tier
		}
		return -1
	}
	if aCells && a.Cells[0] != b.Cells[0] {
		if a.Cells[0].Less(b.Cells[0]) {
			return -1
		}
		return 1
	}
	// The violation key is a total order; using it keeps the output
	// identical across detection engines.
	return pfd.CompareKeys(a, b)
}

// Repair is a suggested fix for one cell.
type Repair struct {
	Cell      table.CellRef `json:"cell"`
	Current   string        `json:"current"`
	Suggested string        `json:"suggested"`
	Rule      string        `json:"rule"`
	// Confidence is the fraction of evidence supporting the suggestion:
	// 1.0 for constant rules, the majority fraction for variable rules.
	Confidence float64 `json:"confidence"`
}

// Repairs derives cell-repair suggestions from the PFD's violations,
// assuming (as Section 3 does) that the LHS value is correct and the RHS
// should change. For variable rows the block majority wins; rows already
// holding the majority value receive no suggestion. A cell two tableau
// rows suggest keeps the earlier row's suggestion.
func (d *Detector) Repairs(p *pfd.PFD) ([]Repair, error) {
	return d.RepairsAllContext(context.TODO(), []*pfd.PFD{p}, 1)
}

// rowRepairs derives one tableau row's suggestions.
func (d *Detector) rowRepairs(tk Task) []Repair {
	riv := d.t.InternedColumn(tk.RI)
	rule := tk.Row.String()
	var out []Repair
	suggest := func(r int, current, suggested string, conf float64) {
		out = append(out, Repair{Cell: table.CellRef{Row: r, Column: tk.P.RHS}, Current: current, Suggested: suggested, Rule: rule, Confidence: conf})
	}
	if !tk.Row.Variable() {
		for _, r := range d.ConstantHits(tk.Row, tk.LI, tk.RI) {
			suggest(r, riv.Value(r), tk.Row.RHS, 1)
		}
		return out
	}
	for _, b := range d.Blocks(tk.LI, tk.Row.LHS) {
		groups := b.rhsGroups(riv)
		if len(groups) < 2 {
			continue // no disagreement
		}
		mi := majorityGroup(groups)
		conf := float64(len(groups[mi].rows)) / float64(len(b.Rows))
		for gi := range groups {
			if gi == mi {
				continue
			}
			for _, r := range groups[gi].rows {
				suggest(r, groups[gi].val, groups[mi].val, conf)
			}
		}
	}
	return out
}

// RepairsAllContext derives repair suggestions for several PFDs on Run's
// per-tableau-row fan-out (0 = GOMAXPROCS workers). When more than one
// rule — or tableau row — suggests a repair for the same cell, the
// earliest in (rule, row) order wins. Cells are compared structurally
// (row plus column name), never through a rendered string a hostile
// column name could collide. The merged list is sorted by cell, so output
// is identical at every parallelism level. Cancelling ctx stops the pool
// between rows.
func (d *Detector) RepairsAllContext(ctx context.Context, ps []*pfd.PFD, parallelism int) ([]Repair, error) {
	run, err := Run(ctx, d, ps, parallelism, d.rowRepairs)
	if err != nil {
		return nil, err
	}
	out := slices.Concat(run.Out...)
	if out == nil {
		out = []Repair{} // no suggestion renders as [], not null
	}
	taken := make(map[table.CellRef]bool, len(out))
	out = slices.DeleteFunc(out, func(r Repair) bool {
		dup := taken[r.Cell]
		taken[r.Cell] = true
		return dup
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.Less(out[j].Cell) })
	return out, nil
}

// Apply writes the repairs into the table (in place) and returns how many
// cells changed.
func Apply(t *table.Table, repairs []Repair) (int, error) {
	n := 0
	for _, r := range repairs {
		ci, ok := t.ColIndex(r.Cell.Column)
		if !ok {
			return n, fmt.Errorf("apply repair: no column %q", r.Cell.Column)
		}
		if t.Cell(r.Cell.Row, ci) != r.Suggested {
			t.SetCell(r.Cell.Row, ci, r.Suggested)
			n++
		}
	}
	return n, nil
}
