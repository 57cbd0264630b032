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
// it is in use — build a fresh Detector after applying repairs (as
// RepairToFixpoint does each pass).
package detect

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
// number of goroutines.
type Detector struct {
	t       *table.Table
	opts    Options
	version int64 // table.Version() at build time; see Stale

	mu       sync.Mutex                     // guards the cache maps (not their slots)
	verdicts map[matchKey]*slot[[]bool]     // the DFA verdict of every dictionary ID
	extracts map[matchKey]*slot[[][]string] // the block keys of every dictionary ID (nil: no match)
	rowsOf   map[int]*slot[rowIndex]        // per LHS column
	blocked  map[matchKey]*slot[[]iblock]   // shared by variable-row detection and repairs
}

// matchKey identifies one (column, pattern) pass.
type matchKey struct {
	col int
	pat string // pattern.Pattern.Key() / pattern.Constrained.Key()
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
		verdicts: make(map[matchKey]*slot[[]bool]),
		extracts: make(map[matchKey]*slot[[][]string]),
		rowsOf:   make(map[int]*slot[rowIndex]),
		blocked:  make(map[matchKey]*slot[[]iblock]),
	}
}

// Stale reports whether the table has been mutated since the detector
// was built, invalidating everything it cached: verdicts and block keys
// are per dictionary ID, and a mutation can add IDs; the row index and
// the blocks hold row numbers. Callers holding a detector across table
// mutations (e.g. a session re-detecting after applying repairs) should
// rebuild when Stale returns true.
func (d *Detector) Stale() bool { return d.t.Version() != d.version }

// matchVerdicts returns the per-dictionary-ID match verdicts of running
// emb over column col.
func (d *Detector) matchVerdicts(col int, emb pattern.Pattern) []bool {
	return cached(d, d.verdicts, matchKey{col, emb.Key()}, func() []bool {
		vals := d.t.InternedColumn(col).Dict.Values()
		verd := make([]bool, len(vals))
		for id, v := range vals {
			verd[id] = emb.MatchesDFA(v)
		}
		return verd
	})
}

// extractKeys returns the block keys q extracts from every dictionary ID
// of column col.
func (d *Detector) extractKeys(col int, q pattern.Constrained) [][]string {
	return cached(d, d.extracts, matchKey{col, q.Key()}, func() [][]string {
		vals := d.t.InternedColumn(col).Dict.Values()
		keys := make([][]string, len(vals))
		for id, v := range vals {
			if ks := q.Extract(v); len(ks) > 0 {
				keys[id] = ks
			}
		}
		return keys
	})
}

// rowIndex is a column's rows grouped by dictionary ID: the rows holding
// ID id are rows[start[id]:start[id+1]], ascending. An ID no row holds any
// more (the table never renumbers its dictionary) has an empty run.
type rowIndex struct{ start, rows []int32 }

// rowsByID returns the rows-by-ID index of column col.
func (d *Detector) rowsByID(col int) rowIndex {
	return cached(d, d.rowsOf, col, func() rowIndex {
		iv := d.t.InternedColumn(col)
		start := make([]int32, iv.Dict.Len()+1)
		for _, id := range iv.IDs {
			start[id+1]++
		}
		for id := 1; id < len(start); id++ {
			start[id] += start[id-1]
		}
		rows := make([]int32, len(iv.IDs))
		next := slices.Clone(start)
		for r, id := range iv.IDs {
			rows[next[id]] = int32(r)
			next[id]++
		}
		return rowIndex{start, rows}
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

// detectRow evaluates one tableau row of one PFD.
func (d *Detector) detectRow(p *pfd.PFD, row tableau.Row, li, ri int) ([]pfd.Violation, error) {
	if row.Variable() {
		return d.detectVariable(p, row, li, ri)
	}
	return d.detectConstant(p, row, li, ri)
}

// detectRaw evaluates every tableau row of one PFD without de-duplicating,
// so DetectAll-style callers can dedupe once at their merge point.
func (d *Detector) detectRaw(p *pfd.PFD) ([]pfd.Violation, error) {
	li, ri, err := d.cols("detect", p)
	if err != nil {
		return nil, err
	}
	out := make([]pfd.Violation, 0, p.Tableau.Len())
	for _, row := range p.Tableau.Rows() {
		vs, err := d.detectRow(p, row, li, ri)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// Detect returns all violations of the PFD, de-duplicated and sorted by
// first cell.
func (d *Detector) Detect(p *pfd.PFD) ([]pfd.Violation, error) {
	vs, err := d.detectRaw(p)
	if err != nil {
		return nil, err
	}
	return dedupe(vs), nil
}

// DetectAll evaluates several PFDs and merges their violations through
// one final dedupe. It is the sequential form of DetectAllContext.
func (d *Detector) DetectAll(ps []*pfd.PFD) ([]pfd.Violation, error) {
	res, err := d.DetectAllContext(context.Background(), ps, 1)
	if err != nil {
		return nil, err
	}
	return res.Violations, nil
}

// RuleStats records the detection cost of one PFD: how many tableau rows
// were evaluated, how many violations it contributed (before the
// cross-rule dedupe), and the cumulative wall time of its row tasks.
// Under parallel execution Duration sums the per-row task times, so it
// reads as busy time, not elapsed time.
type RuleStats struct {
	PFDID      string        `json:"pfd"`
	Rows       int           `json:"rows"`
	Violations int           `json:"violations"`
	Duration   time.Duration `json:"duration_ns"`
	// DroppedAlternatives counts repair suggestions from this rule that
	// were discarded because another rule won the same cell with a
	// *different* suggested value (see RepairsAllStats). Zero outside
	// repair derivation.
	DroppedAlternatives int `json:"dropped_alternatives,omitempty"`
}

// Result pairs the merged violations of a DetectAllContext run with
// per-rule timing stats and the effective worker count.
type Result struct {
	Violations  []pfd.Violation `json:"violations"`
	Stats       []RuleStats     `json:"stats"`
	Parallelism int             `json:"parallelism"`
}

// rowTask names one unit of detection work: one tableau row of one rule.
type rowTask struct {
	rule, row int
}

// workerCount resolves a parallelism setting to an effective pool size:
// 0 means GOMAXPROCS, clamped to the task count and at least 1.
func workerCount(parallelism, tasks int) int {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPool executes task(i) for every i in [0, n) over a fixed pool of
// workers, feeding indices in order and stopping the feed when ctx is
// cancelled (already-queued tasks still run; tasks should check ctx
// themselves to bail early). Tasks record their own results into
// caller-owned indexed slices — disjoint slots, so no locking — and the
// caller checks ctx.Err() after return: a cancelled feed means some
// tasks never ran.
func runPool(ctx context.Context, n, workers int, task func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				task(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// DetectAllContext evaluates several PFDs with a worker pool that fans
// out per tableau row. parallelism bounds the worker count (0 =
// GOMAXPROCS). Results are merged in (rule, tableau-row) order and
// de-duplicated once through the dedupe total order, so the violation
// list is byte-identical to the sequential engine at every parallelism
// level. Cancelling ctx stops the pool between row tasks and returns an
// error wrapping ctx.Err().
func (d *Detector) DetectAllContext(ctx context.Context, ps []*pfd.PFD, parallelism int) (*Result, error) {
	// Resolve all column positions up front so schema errors surface
	// deterministically, before any work is spawned. Tableau rows are
	// snapshotted once per rule (Rows() copies) rather than per task.
	lis := make([]int, len(ps))
	ris := make([]int, len(ps))
	rowsOf := make([][]tableau.Row, len(ps))
	var tasks []rowTask
	for i, p := range ps {
		li, ri, err := d.cols("detect", p)
		if err != nil {
			return nil, err
		}
		lis[i], ris[i] = li, ri
		rowsOf[i] = p.Tableau.Rows()
		for r := range rowsOf[i] {
			tasks = append(tasks, rowTask{rule: i, row: r})
		}
	}

	workers := workerCount(parallelism, len(tasks))
	type rowResult struct {
		vs  []pfd.Violation
		dur time.Duration
		err error
	}
	// Indexed by task position: workers write disjoint slots, and the
	// merge below reads them back in deterministic (rule, row) order.
	results := make([]rowResult, len(tasks))
	runPool(ctx, len(tasks), workers, func(ti int) {
		if err := ctx.Err(); err != nil {
			results[ti].err = err
			return
		}
		tk := tasks[ti]
		start := time.Now()
		vs, err := d.detectRow(ps[tk.rule], rowsOf[tk.rule][tk.row], lis[tk.rule], ris[tk.rule])
		results[ti] = rowResult{vs: vs, dur: time.Since(start), err: err}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("detection cancelled: %w", err)
	}

	total := 0
	for ti := range results {
		if err := results[ti].err; err != nil {
			return nil, err
		}
		total += len(results[ti].vs)
	}
	merged := make([]pfd.Violation, 0, total)
	stats := make([]RuleStats, len(ps))
	for i, p := range ps {
		stats[i] = RuleStats{PFDID: p.ID(), Rows: p.Tableau.Len()}
	}
	for ti, tk := range tasks {
		merged = append(merged, results[ti].vs...)
		stats[tk.rule].Violations += len(results[ti].vs)
		stats[tk.rule].Duration += results[ti].dur
	}
	return &Result{Violations: dedupe(merged), Stats: stats, Parallelism: workers}, nil
}

func (d *Detector) detectConstant(p *pfd.PFD, row tableau.Row, li, ri int) ([]pfd.Violation, error) {
	liv, riv := d.t.InternedColumn(li), d.t.InternedColumn(ri)
	var out []pfd.Violation
	for _, r := range d.constantHits(row, li, ri) {
		out = append(out, pfd.ConstantViolation(p, row, r, liv.Value(r), riv.Value(r)))
	}
	return out, nil
}

// constantHits returns, ascending, the rows that violate a constant
// tableau row: the LHS matches tp[A] and the RHS differs from tp[B].
func (d *Detector) constantHits(row tableau.Row, li, ri int) []int {
	emb := row.LHS.Embedded()
	liv, riv := d.t.InternedColumn(li), d.t.InternedColumn(ri)
	var hits []int
	if d.opts.DisableIndex {
		// Ablation: match every row individually, no dictionary memo.
		for r, id := range liv.IDs {
			if emb.MatchesDFA(liv.Dict.Value(id)) && riv.Value(r) != row.RHS {
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
	for id, ok := range d.matchVerdicts(li, emb) {
		if !ok {
			continue
		}
		runs++
		for _, r := range idx.rows[idx.start[id]:idx.start[id+1]] {
			if !haveConst || riv.IDs[r] != constID {
				hits = append(hits, int(r))
			}
		}
	}
	if runs > 1 {
		sort.Ints(hits) // each run is ascending; several are not
	}
	return hits
}

func (d *Detector) detectVariable(p *pfd.PFD, row tableau.Row, li, ri int) ([]pfd.Violation, error) {
	liv, riv := d.t.InternedColumn(li), d.t.InternedColumn(ri)
	if d.opts.DisableBlocking {
		// Quadratic reference: restrict to rows matching the embedded
		// pattern first (the paper's index optimization applies here too
		// unless the index is also disabled).
		emb := row.LHS.Embedded()
		var cand []int
		if !d.opts.DisableIndex {
			verd := d.matchVerdicts(li, emb)
			for r, id := range liv.IDs {
				if verd[id] {
					cand = append(cand, r)
				}
			}
		} else {
			for r, id := range liv.IDs {
				if emb.MatchesDFA(liv.Dict.Value(id)) {
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
					out = append(out, pfd.VariableViolation(p, row, i, j, riv.Value(i), riv.Value(j)))
				}
			}
		}
		return out, nil
	}
	var out []pfd.Violation
	for _, b := range d.blocks(li, row.LHS) {
		out = b.appendConflicts(out, p, row, riv, !d.opts.AllPairs)
	}
	return out, nil
}

// iblock is one blocking bucket over an interned LHS column: the rows
// sharing one constrained key. Conflict checks compare the rows' RHS
// dictionary IDs; strings are decoded only when a violation is rendered.
type iblock struct {
	key  string
	rows []int // ascending (built in row order)
}

// blocks partitions the rows matching q into buckets by constrained key,
// sorted by key. Extraction runs once per distinct LHS value through the
// extraction cache, no matter how many rows repeat the value, and the
// partition is cached: detection and repairs read the same one.
func (d *Detector) blocks(li int, q pattern.Constrained) []iblock {
	return cached(d, d.blocked, matchKey{li, q.Key()}, func() []iblock {
		keys := d.extractKeys(li, q)
		m := make(map[string]*iblock)
		for r, id := range d.t.InternedColumn(li).IDs {
			for _, k := range keys[id] {
				b := m[k]
				if b == nil {
					b = &iblock{key: k}
					m[k] = b
				}
				b.rows = append(b.rows, r)
			}
		}
		out := make([]iblock, 0, len(m))
		for _, b := range m {
			out = append(out, *b)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
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
func (b *iblock) rhsGroups(riv *table.Interned) []rhsGroup {
	idx := make(map[uint32]int, 2)
	var groups []rhsGroup
	for _, r := range b.rows {
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
func (b *iblock) appendConflicts(out []pfd.Violation, p *pfd.PFD, row tableau.Row, riv *table.Interned, firstOnly bool) []pfd.Violation {
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
				out = append(out, pfd.VariableViolation(p, row, rep, r, maj, groups[gi].val))
			}
		}
		return out
	}
	for a := 0; a < len(groups); a++ {
		for c := a + 1; c < len(groups); c++ {
			for _, ri := range groups[a].rows {
				for _, rj := range groups[c].rows {
					out = append(out, pfd.VariableViolation(p, row, ri, rj, groups[a].val, groups[c].val))
				}
			}
		}
	}
	return out
}

// dedupe sorts the violations into the total order and removes
// duplicates: a pair found through two blocks renders one key (a cell
// flagged by two tableau rows of the same PFD stays distinct because the
// rule differs), and equal keys end up adjacent.
func dedupe(vs []pfd.Violation) []pfd.Violation {
	SortViolations(vs)
	return slices.CompactFunc(vs, func(a, b pfd.Violation) bool { return CompareViolations(&a, &b) == 0 })
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
// holding the majority value receive no suggestion.
func (d *Detector) Repairs(p *pfd.PFD) ([]Repair, error) {
	li, ri, err := d.cols("repair", p)
	if err != nil {
		return nil, err
	}
	var out []Repair
	seen := map[int]bool{}
	var rule string // the tableau row at hand, rendered once
	suggest := func(r int, current, suggested string, conf float64) {
		if !seen[r] {
			seen[r] = true
			out = append(out, Repair{Cell: table.CellRef{Row: r, Column: p.RHS}, Current: current, Suggested: suggested, Rule: rule, Confidence: conf})
		}
	}
	riv := d.t.InternedColumn(ri)
	for _, row := range p.Tableau.Rows() {
		rule = row.String()
		if !row.Variable() {
			for _, r := range d.constantHits(row, li, ri) {
				suggest(r, riv.Value(r), row.RHS, 1)
			}
			continue
		}
		for _, b := range d.blocks(li, row.LHS) {
			groups := b.rhsGroups(riv)
			if len(groups) < 2 {
				continue // no disagreement
			}
			mi := majorityGroup(groups)
			conf := float64(len(groups[mi].rows)) / float64(len(b.rows))
			for gi := range groups {
				if gi == mi {
					continue
				}
				for _, r := range groups[gi].rows {
					suggest(r, groups[gi].val, groups[mi].val, conf)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.Less(out[j].Cell) })
	return out, nil
}

// RepairsAllContext derives repair suggestions for several PFDs; it is
// RepairsAllStats without the per-rule stats.
func (d *Detector) RepairsAllContext(ctx context.Context, ps []*pfd.PFD, parallelism int) ([]Repair, error) {
	out, _, err := d.RepairsAllStats(ctx, ps, parallelism)
	return out, err
}

// RepairsAllStats derives repair suggestions for several PFDs with a
// worker pool that fans out per rule (0 = GOMAXPROCS workers). When more
// than one rule suggests a repair for the same cell, the winner is picked
// deterministically — lowest rule index, ties broken by the
// lexicographically smallest suggested value — and every losing
// suggestion that proposed a *different* value is counted in its rule's
// DroppedAlternatives stat instead of being dropped silently. Cells are
// compared structurally (row plus column name), never through a rendered
// string a hostile column name could collide. The merged list is sorted
// by cell, so output is identical at every parallelism level. Cancelling
// ctx stops the pool between rules.
func (d *Detector) RepairsAllStats(ctx context.Context, ps []*pfd.PFD, parallelism int) ([]Repair, []RuleStats, error) {
	type ruleResult struct {
		rs  []Repair
		err error
	}
	results := make([]ruleResult, len(ps))
	runPool(ctx, len(ps), workerCount(parallelism, len(ps)), func(i int) {
		if err := ctx.Err(); err != nil {
			results[i].err = err
			return
		}
		rs, err := d.Repairs(ps[i])
		results[i] = ruleResult{rs: rs, err: err}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("repairs cancelled: %w", err)
	}

	total := 0
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, nil, err
		}
		total += len(results[i].rs)
	}
	stats := make([]RuleStats, len(ps))
	for i, p := range ps {
		stats[i] = RuleStats{PFDID: p.ID(), Rows: p.Tableau.Len()}
	}
	type winner struct {
		at   int // index into out
		rule int
	}
	out := make([]Repair, 0, total)
	byCell := make(map[table.CellRef]winner, total)
	for i := range results {
		for _, r := range results[i].rs {
			w, taken := byCell[r.Cell]
			if !taken {
				byCell[r.Cell] = winner{at: len(out), rule: i}
				out = append(out, r)
				continue
			}
			cur := &out[w.at]
			// Rules are visited in ascending index order, so the holder
			// normally wins outright; the value tie-break only fires when
			// the same rule appears twice in ps.
			if i < w.rule || (i == w.rule && r.Suggested < cur.Suggested) {
				if r.Suggested != cur.Suggested {
					stats[w.rule].DroppedAlternatives++
				}
				*cur = r
				byCell[r.Cell] = winner{at: w.at, rule: i}
			} else if r.Suggested != cur.Suggested {
				stats[i].DroppedAlternatives++
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.Less(out[j].Cell) })
	return out, stats, nil
}

// RepairToFixpoint alternates detection and repair until no suggestions
// remain or maxIters passes complete, returning the total cells changed
// and the violations left at the end. Repairing one rule can surface new
// block majorities for another, so a single pass is not always enough.
func RepairToFixpoint(t *table.Table, ps []*pfd.PFD, maxIters int) (changed int, remaining []pfd.Violation, err error) {
	return RepairToFixpointContext(context.Background(), t, ps, maxIters, 1)
}

// RepairToFixpointContext is RepairToFixpoint with cancellation and a
// parallel repair/detect engine. Each pass builds a fresh Detector: the
// pass mutates the table, so the previous pass's indexes are stale.
func RepairToFixpointContext(ctx context.Context, t *table.Table, ps []*pfd.PFD, maxIters, parallelism int) (changed int, remaining []pfd.Violation, err error) {
	if maxIters <= 0 {
		maxIters = 5
	}
	for iter := 0; iter < maxIters; iter++ {
		all, err := New(t, Options{}).RepairsAllContext(ctx, ps, parallelism)
		if err != nil {
			return changed, nil, err
		}
		if len(all) == 0 {
			break
		}
		n, err := Apply(t, all)
		if err != nil {
			return changed, nil, err
		}
		changed += n
		if n == 0 {
			break // suggestions exist but change nothing; avoid looping
		}
	}
	res, err := New(t, Options{}).DetectAllContext(ctx, ps, parallelism)
	if err != nil {
		return changed, nil, err
	}
	return changed, res.Violations, nil
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
