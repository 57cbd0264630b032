// Package stream is the incremental detection subsystem: a delta-ingestion
// engine that maintains the violation set of a rule set over a mutating
// table without re-running full detection.
//
// An Engine is built once over a table and a fixed set of PFDs, booting
// from a detect.Detector's per-distinct-value products on detect.Run's
// per-tableau-row fan-out: the boot is the detection pass, and a
// session's upload is that boot (its violations are the engine's sorted
// set from the start). Batched deltas (AppendRows, UpdateCell,
// DeleteRows) flow through ApplyCtx, which updates the table
// (dictionary-coded columns, table.Interned), the per-block majority
// state of every variable tableau row, and the materialized violation
// set — touching only the constant-row tuples and the block memberships
// a delta changes. The maintained invariant,
// property-tested by replaying random delta scripts against full
// re-detection, is:
//
//	Engine.Violations() is byte-identical to a fresh
//	detect.DetectAllContext over the current table at any point,
//	at every parallelism level.
//
// The invariant holds because full detection's output is a pure function
// of the violation *set* (detect.SortViolations is a total order and
// duplicates are byte-identical), so maintaining the set maintains the
// bytes.
//
// Bookkeeping is source-based: every violation is owed to one or more
// sources — a (rule, constant tableau row, tuple) triple or a (rule,
// variable tableau row, block key) triple — and the maintained Set counts
// its references, since ambiguous pattern extractions can make two
// blocks report the same pair. What a block owes follows from its state —
// every member outside the majority RHS group, paired with that group's
// first member — so a delta references and unreferences the pairs its
// membership change adds or removes, and re-derives a block only when its
// majority or witness moves. The 0↔1 reference transitions form the
// batch's diff.
//
// The batch protocol — lock, staleness, validation, write-ahead sink,
// numbering, and the bounded log of per-batch Diffs behind Since cursors
// and the sorted full set — is the Sequencer's, which the engine and the
// sharding coordinator both embed; each supplies only the step that
// applies a batch. An Engine is safe for concurrent use; batches
// serialize on the sequencer's lock.
package stream

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/intern"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// DefaultLogCap is the number of per-batch diffs retained for Since
// cursors before old entries are trimmed and stale cursors fall back to a
// full-snapshot reset.
const DefaultLogCap = 512

// vioKey identifies one maintained violation without rendering its key:
// the source identity (see ruleState.src) and the violating tuples in
// ascending row order, hi being -1 for a constant row's single tuple.
// Over one engine's rule set it is in bijection with Violation.Key().
type vioKey struct {
	src    int32
	lo, hi int32
}

func constKey(src int32, tuple int) vioKey { return vioKey{src: src, lo: int32(tuple), hi: -1} }

func pairKey(src int32, a, b int) vioKey {
	if b < a {
		a, b = b, a
	}
	return vioKey{src: src, lo: int32(a), hi: int32(b)}
}

// group is one RHS-agreement class of a block.
type group struct {
	rhs  uint32 // interned RHS ID
	rows []int  // members in evaluation order (see Engine.before)
}

// block is the maintained state of one (rule, variable tableau row,
// block key) source. It owes one violation per member outside the
// majority group, paired with the majority group's first member (the
// witness): the pairs full detection's blocking pass reports for it.
type block struct {
	groups []group // never holds an empty group between operations
	// maj indexes the majority group: the largest, ties going to the
	// smallest RHS string. -1 until the first election.
	maj int
	// released marks a block whose owed violations a delete op has
	// dropped and not yet re-derived in the new numbering.
	released bool
}

// groupFor returns the index of the group holding rhs, appending an empty
// one (to be filled by the caller) when the value is new to the block.
func (b *block) groupFor(rhs uint32) int {
	for i := range b.groups {
		if b.groups[i].rhs == rhs {
			return i
		}
	}
	b.groups = append(b.groups, group{rhs: rhs})
	return len(b.groups) - 1
}

// leader elects the majority group as if group g held delta more members
// than it does (g < 0: as the block stands). -1 when no member remains.
func (b *block) leader(dict *intern.Dict, g, delta int) int {
	best, bestN := -1, 0
	for i := range b.groups {
		n := len(b.groups[i].rows)
		if i == g {
			n += delta
		}
		if n > bestN || n > 0 && n == bestN && dict.Value(b.groups[i].rhs) < dict.Value(b.groups[best].rhs) {
			best, bestN = i, n
		}
	}
	return best
}

func (b *block) witness() int { return b.groups[b.maj].rows[0] }

// owed yields every (witness, deviating member) pair the block owes.
func (b *block) owed(yield func(witness, r int)) {
	if len(b.groups) < 2 {
		return
	}
	w := b.witness()
	for gi := range b.groups {
		if gi == b.maj {
			continue
		}
		for _, r := range b.groups[gi].rows {
			yield(w, r)
		}
	}
}

// renumber rewrites every member through remap, dropping members that do
// not survive and groups they empty, and reports whether any member is
// left. Survivors keep their relative order, so groups stay sorted.
func (b *block) renumber(remap func(int) (int, bool)) bool {
	kept := b.groups[:0]
	for _, g := range b.groups {
		rows := g.rows[:0]
		for _, r := range g.rows {
			if nr, ok := remap(r); ok {
				rows = append(rows, nr)
			}
		}
		if len(rows) > 0 {
			kept = append(kept, group{rhs: g.rhs, rows: rows})
		}
	}
	clear(b.groups[len(kept):])
	b.groups = kept
	return len(kept) > 0
}

// ruleState is the incremental bookkeeping of one PFD. Slices are indexed
// by tableau-row position; only the slot matching the row kind is
// populated (cm for constant rows, blocks for variable rows).
type ruleState struct {
	li, ri int
	// liv/riv are the table's LHS and RHS columns.
	// The table maintains them through every delta; detection compares
	// interned IDs and decodes strings only to render a violation.
	liv, riv *table.Interned
	rows     []tableau.Row
	// names is what each row's violations name, rendered once per row.
	names []pfd.Source
	// src is each row's violation-key identity: an index per distinct
	// name (rule ID, columns, row rendering). Sources that render equal keys —
	// a rule listed twice — share it, as full detection dedupes them.
	src []int32
	// blocks holds, per variable row, the state of every tracked block.
	blocks []map[string]*block
	// cm answers, per constant row, whether an LHS dictionary ID matches
	// the row's embedded pattern; it grows with the dictionary, whose IDs
	// are never renumbered (see intern), so it holds through every delta.
	cm []detect.ConstMatch
}

// Engine maintains the violation set of a rule set over a mutating table.
// Its Sequencer runs the batch protocol (ApplyCtx, Seq, Stale, SetSink,
// Violations, Since); the engine supplies the step that applies a batch.
type Engine struct {
	*Sequencer

	rs  []*ruleState
	vio *Set[vioKey]

	// extBuf backs extract: per-batch scratch, safe to own because batches
	// serialize on the sequencer's lock.
	extBuf []string

	// keyFilter and globalID are the sharding hooks of EngineOptions.
	keyFilter func(key string) bool
	globalID  func(local int) int

	// boot is the bootstrap's per-rule cost, and bootWorkers its worker
	// count, fixed at Boot.
	boot        []detect.RuleStats
	bootWorkers int
}

// EngineOptions tunes Boot. The zero value boots at sequence 0 and keeps
// DefaultLogCap diffs, as NewEngineFrom does at baseSeq 0.
type EngineOptions struct {
	// BaseSeq is the starting sequence number (see NewEngineFrom).
	BaseSeq int64
	// LogCap bounds the retained per-batch diffs (0 = DefaultLogCap).
	LogCap int
	// KeyFilter, when set, restricts which variable-row block keys the
	// engine tracks and evaluates: keys for which it returns false are
	// never given a block, so they report no violations. A sharding
	// coordinator gives each shard the filter "keys this shard owns" —
	// each key is then evaluated on exactly one shard, over that shard's
	// complete membership. Constant tableau rows are unaffected. nil
	// tracks every key.
	KeyFilter func(key string) bool
	// GlobalID, when set, maps a local row index to its position in an
	// enclosing global order; block members are kept in that order
	// instead of local row order. The blocking pass pairs each deviating
	// row against the *first* row of the majority group, so which pairs
	// are reported depends on member order — a shard whose local order
	// disagrees with the global one (rows migrate in at the end of the
	// local table) must evaluate in global order to report exactly the
	// pairs a whole-table detection would. The mapping is consulted
	// during ApplyCtx for the rows it touches and must reflect the table
	// state the current operation leads to; two live rows never swap
	// order. nil means local order.
	GlobalID func(local int) int
}

// NewEngineFrom bootstraps an engine over the table's current contents,
// starting at sequence number baseSeq: Boot over a fresh detector with
// GOMAXPROCS workers and no deadline. The rule set is fixed for the
// engine's lifetime; build a new engine to change it. After the
// bootstrap an append or a cell update costs in proportion to the
// memberships and violations it changes (plus one copy of the sorted set
// when it changes any), not to the blocks it touches — unless it moves a
// block's majority or witness, which re-derives that block. A delete
// renumbers rows, so it visits every maintained violation and block.
// A holder replacing an engine (table mutated externally, rule set
// changed) passes the old engine's Seq()+1 so client cursors keep a
// consistent timeline: cursors at or before the old seq fall outside the
// fresh (empty) diff log and resolve to a reset snapshot instead of an
// out-of-range error.
func NewEngineFrom(t *table.Table, rules []*pfd.PFD, baseSeq int64) (*Engine, error) {
	return Boot(context.TODO(), detect.New(t, detect.Options{}), rules, 0, EngineOptions{BaseSeq: baseSeq})
}

// Boot bootstraps an engine over the detector's table: the detection
// pass itself, one detect.Run task per tableau row over at most
// parallelism workers (0 = GOMAXPROCS), each deriving its row's state
// from the detector's cached products (see bootRow). Sources are
// numbered, and the renderings load into the set, in (rule, row) order;
// the sorted set is DetectAllContext's, the per-rule cost Stats().Boot.
// Of the detector, which must not be stale, the engine keeps only each
// constant row's detect.ConstMatch, whose passes grow with the dictionary
// under the engine's batches. Cancelling ctx stops the pool between
// tasks.
func Boot(ctx context.Context, d *detect.Detector, rules []*pfd.PFD, parallelism int, opts EngineOptions) (*Engine, error) {
	// One span per bootstrap — the cost every later delta amortizes;
	// per-row work stays uninstrumented.
	defer obs.Span(context.Background(), "stream.bootstrap")()
	if d.Stale() {
		return nil, fmt.Errorf("stream: detector predates the table's last mutation")
	}
	t := d.Table()
	e := &Engine{
		vio:       NewSet[vioKey](),
		keyFilter: opts.KeyFilter,
		globalID:  opts.GlobalID,
	}
	srcs := make(map[pfd.Source]int32)
	for _, p := range rules {
		id := p.ID()
		li, ok := t.ColIndex(p.LHS)
		if !ok {
			return nil, fmt.Errorf("stream %s: no column %q", id, p.LHS)
		}
		ri, ok := t.ColIndex(p.RHS)
		if !ok {
			return nil, fmt.Errorf("stream %s: no column %q", id, p.RHS)
		}
		rows := p.Tableau.Rows()
		rs := &ruleState{
			li: li, ri: ri, rows: rows,
			liv:    t.InternedColumn(li),
			riv:    t.InternedColumn(ri),
			names:  make([]pfd.Source, len(rows)),
			src:    make([]int32, len(rows)),
			blocks: make([]map[string]*block, len(rows)),
			cm:     make([]detect.ConstMatch, len(rows)),
		}
		for tri, row := range rows {
			ident := pfd.SourceOf(p, row)
			if _, ok := srcs[ident]; !ok {
				srcs[ident] = int32(len(srcs))
			}
			rs.names[tri], rs.src[tri] = ident, srcs[ident]
		}
		e.rs = append(e.rs, rs)
	}
	run, err := detect.Run(ctx, d, rules, parallelism, func(tk detect.Task) []pfd.Violation {
		return e.bootRow(d, e.rs[tk.Rule], tk.Pos)
	})
	if err != nil {
		return nil, err
	}
	for ti, tk := range run.Tasks {
		for _, v := range run.Out[ti] {
			k := vioKey{src: e.rs[tk.Rule].src[tk.Pos], lo: int32(v.Tuples[0]), hi: -1}
			if len(v.Tuples) == 2 {
				k.hi = int32(v.Tuples[1])
			}
			e.vio.load(k, v)
		}
	}
	e.boot, e.bootWorkers = run.Stats, run.Workers
	e.Sequencer = NewSequencer(t, opts.BaseSeq, opts.LogCap, detect.Merge(run.Out), e.apply)
	e.traced = true
	return e, nil
}

// bootRow is one bootstrap task: it derives tableau row tri's initial
// state from the detector — a constant row keeps its ConstMatch, a
// variable row files each block's rows by RHS value in evaluation order
// and elects the majority — and renders
// the violations the row owes. It writes only the row's own slots, so
// rows boot concurrently.
func (e *Engine) bootRow(d *detect.Detector, rs *ruleState, tri int) []pfd.Violation {
	row := rs.rows[tri]
	var out []pfd.Violation
	if !row.Variable() {
		rs.cm[tri] = d.ConstMatch(rs.li, row.LHS.Embedded())
		for _, r := range d.ConstantHits(row, rs.li, rs.ri) {
			out = append(out, rs.constViolation(tri, r))
		}
		return out
	}
	rs.blocks[tri] = make(map[string]*block)
	for _, db := range d.Blocks(rs.li, row.LHS) {
		if e.keyFilter != nil && !e.keyFilter(db.Key) {
			continue
		}
		b := &block{}
		var n []int // members per group, so each group's rows are allocated once
		for _, r := range db.Rows {
			if g := b.groupFor(rs.riv.IDs[r]); g == len(n) {
				n = append(n, 1)
			} else {
				n[g]++
			}
		}
		for g := range b.groups {
			b.groups[g].rows = make([]int, 0, n[g])
		}
		for _, r := range db.Rows {
			g := b.groupFor(rs.riv.IDs[r])
			b.groups[g].rows = append(b.groups[g].rows, r)
		}
		if e.globalID != nil {
			// Local order may differ from evaluation order on a shard
			// whose rows migrated in.
			for _, g := range b.groups {
				slices.SortFunc(g.rows, func(x, y int) int { return e.globalID(x) - e.globalID(y) })
			}
		}
		b.maj = b.leader(rs.riv.Dict, -1, 0)
		b.owed(func(w, r int) { out = append(out, rs.pairViolation(tri, w, r)) })
		rs.blocks[tri][db.Key] = b
	}
	return out
}

// Stats summarizes the engine's maintained state for observability.
type Stats struct {
	Seq        int64 `json:"seq"`
	Rows       int   `json:"rows"`
	Rules      int   `json:"rules"`
	Violations int   `json:"violations"`
	// Blocks is the total number of tracked pattern groups across all
	// variable tableau rows.
	Blocks int `json:"blocks"`
	// IndexedColumns is the number of columns the rule set reads (every
	// LHS and RHS column).
	IndexedColumns int `json:"indexed_columns"`
	// LogLen is the number of retained per-batch diffs (Since horizon).
	LogLen int `json:"log_len"`
	// Boot is the bootstrap's cost per rule (see detect.Run): what a
	// session's detection stage reports.
	Boot []detect.RuleStats `json:"boot"`
	// BootWorkers is how many workers the bootstrap ran on.
	BootWorkers int `json:"boot_workers"`
}

// Stats returns a snapshot of the engine's maintained state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Seq: e.seq, Rows: e.t.NumRows(), Rules: len(e.rs),
		Violations: e.vio.Len(), LogLen: e.log.Len(), Boot: e.boot, BootWorkers: e.bootWorkers,
	}
	read := make(map[int]bool)
	for _, rs := range e.rs {
		read[rs.li], read[rs.ri] = true, true
		for _, blocks := range rs.blocks {
			st.Blocks += len(blocks)
		}
	}
	st.IndexedColumns = len(read)
	return st
}

// apply is the engine's Step: it runs the batch's ops against the table
// and the maintained state and returns the batch's diff.
func (e *Engine) apply(_ context.Context, seq int64, batch Batch) (*Diff, error) {
	start := time.Now()
	for _, op := range batch {
		switch op.Kind {
		case OpAppend:
			e.applyAppend(op.Rows)
			opsAppend.Inc()
		case OpUpdate:
			e.applyUpdate(op.Row, op.Column, op.Value)
			opsUpdate.Inc()
		case OpDelete:
			e.applyDelete(op.Drop)
			opsDelete.Inc()
		}
	}
	diff := e.vio.Diff(seq, e.t.NumRows())
	applyDur.Observe(time.Since(start).Seconds())
	batchesApplied.Inc()
	difflogDepth.Set(float64(min(e.log.Len()+1, e.log.max))) // the depth once the diff is logged
	violationSize.Set(float64(e.vio.Len()))
	return diff, nil
}

// extract returns a variable tableau row's block keys for one LHS value,
// without the keys the engine's KeyFilter rejects, in the engine's
// scratch buffer: the result is valid until the next call.
func (e *Engine) extract(row tableau.Row, lv string) []string {
	e.extBuf = row.LHS.AppendExtract(e.extBuf[:0], lv)
	if e.keyFilter != nil {
		e.extBuf = slices.DeleteFunc(e.extBuf, func(k string) bool { return !e.keyFilter(k) })
	}
	return e.extBuf
}

// ---- delta application ----

func (e *Engine) applyAppend(rows [][]string) {
	start := e.t.NumRows()
	for _, r := range rows {
		// The engine is an ingestion boundary: normalize CRLF sequences
		// like table.ReadCSV does, so streamed tables keep the CSV
		// round-trip invariant. Arity was validated; Append copies.
		rec := make([]string, len(r))
		for i, c := range r {
			rec[i] = table.NormalizeCell(c)
		}
		_ = e.t.Append(rec)
	}
	for _, rs := range e.rs {
		for n := start; n < e.t.NumRows(); n++ {
			lv := rs.liv.Value(n)
			for tri, row := range rs.rows {
				if !row.Variable() {
					e.recomputeConst(rs, tri, n)
					continue
				}
				for _, key := range e.extract(row, lv) {
					e.join(rs, tri, key, n)
				}
			}
		}
	}
}

func (e *Engine) applyUpdate(rowIdx int, column, value string) {
	ci, _ := e.t.ColIndex(column) // validated
	value = table.NormalizeCell(value)
	old := e.t.Cell(rowIdx, ci)
	if old == value {
		return
	}
	oldID := e.t.InternedColumn(ci).IDs[rowIdx]
	e.t.SetCell(rowIdx, ci, value)
	for _, rs := range e.rs {
		if rs.li != ci && rs.ri != ci {
			continue
		}
		lhsBefore, rhsBefore := rs.liv.Value(rowIdx), rs.riv.IDs[rowIdx]
		if rs.li == ci {
			lhsBefore = old
		}
		if rs.ri == ci {
			rhsBefore = oldID
		}
		for tri, row := range rs.rows {
			if !row.Variable() {
				e.recomputeConst(rs, tri, rowIdx)
				continue
			}
			// The tuple leaves the blocks of its old LHS under its old RHS
			// value and joins the blocks of its new LHS under the new one:
			// a move between blocks, between groups of one block, or both.
			keys := e.extract(row, lhsBefore)
			for _, key := range keys {
				e.leave(rs, tri, key, rowIdx, rhsBefore)
			}
			if rs.li == ci {
				keys = e.extract(row, rs.liv.Value(rowIdx))
			}
			for _, key := range keys {
				e.join(rs, tri, key, rowIdx)
			}
		}
	}
}

func (e *Engine) applyDelete(drop []int) {
	targets := slices.Clone(drop)
	slices.Sort(targets)
	targets = slices.Compact(targets)

	// A delete renumbers every surviving row, so every maintained
	// violation may change its rendering: snapshot them all into the
	// batch diff before touching anything.
	for k, ent := range e.vio.m {
		e.vio.touch(k, ent)
	}

	// Drop what the deleted tuples' own constant sources owe and release
	// every block that loses a member: any violation mentioning a deleted
	// row is owed by such a source, so afterwards none does and the
	// renumbering is total. The renumbering pass trims the memberships.
	for _, rs := range e.rs {
		for tri, row := range rs.rows {
			for _, r := range targets {
				if !row.Variable() {
					e.vio.Unref(constKey(rs.src[tri], r))
					continue
				}
				for _, key := range e.extract(row, rs.liv.Value(r)) {
					if b := rs.blocks[tri][key]; !b.released {
						b.released = true
						e.release(rs, tri, b)
					}
				}
			}
		}
	}

	// Compact the table and renumber everything that survived. Dictionary
	// IDs are never renumbered, so the per-ID verdict memos stay valid.
	_, _ = e.t.DeleteRows(targets...) // validated in-range
	remap := RemapFor(targets)
	newVio := make(map[vioKey]*setEntry, len(e.vio.m))
	for k, ent := range e.vio.m {
		lo, _ := remap(int(k.lo)) // no surviving violation mentions a deleted row
		nk := constKey(k.src, lo)
		if k.hi >= 0 {
			hi, _ := remap(int(k.hi))
			nk = pairKey(k.src, lo, hi)
		}
		ent.v = renumberViolation(ent.v, remap)
		newVio[nk] = ent
		// The renumbered key may be new this batch: record it absent at
		// batch start so the diff reports the re-addition. (A key live at
		// batch start is already recorded — every key live at delete time
		// was, and keys removed earlier were touched when removed.)
		e.vio.touch(nk, nil)
	}
	e.vio.m = newVio
	// Renumber every block, and re-derive the ones that lost members.
	for _, rs := range e.rs {
		for tri, blocks := range rs.blocks {
			for key, b := range blocks {
				if !b.renumber(remap) {
					delete(blocks, key)
				} else if b.released {
					b.released = false
					e.rebuild(rs, tri, b)
				}
			}
		}
	}
}

// RemapFor returns the old→new row mapping of deleting the sorted target
// rows — the mapping full detection's table compaction induces: a
// surviving row shifts down by the number of deleted rows below it;
// deleted rows do not survive.
func RemapFor(sortedTargets []int) func(int) (int, bool) {
	targets := append([]int(nil), sortedTargets...)
	return func(old int) (int, bool) {
		below := sort.SearchInts(targets, old)
		if below < len(targets) && targets[below] == old {
			return 0, false
		}
		return old - below, true
	}
}

// renumberViolation rewrites a violation's row references through remap.
// Cell order is preserved (the mapping is monotone on survivors), so the
// result is exactly what full detection reports on the compacted table.
func renumberViolation(v pfd.Violation, remap func(int) (int, bool)) pfd.Violation {
	nv := v
	nv.Cells = make([]table.CellRef, len(v.Cells))
	for i, c := range v.Cells {
		nr, _ := remap(c.Row)
		nv.Cells[i] = table.CellRef{Row: nr, Column: c.Column}
	}
	nv.Tuples = make([]int, len(v.Tuples))
	for i, t := range v.Tuples {
		nv.Tuples[i], _ = remap(t)
	}
	return nv
}

// ---- per-source maintenance ----

// recomputeConst re-evaluates one (rule, constant tableau row, tuple)
// source against the current table. The source keeps no record of what it
// owes: it drops a reference to its key if the key is held at all, and
// takes one back if the tuple violates the row now. Sources that share a
// key are copies of one rule, agree on every tuple, and are all visited
// by every operation, so the key stays held exactly while it is owed.
func (e *Engine) recomputeConst(rs *ruleState, tri, tuple int) {
	e.vio.Unref(constKey(rs.src[tri], tuple))
	if !rs.cm[tri].Matches(rs.liv.IDs[tuple]) {
		return
	}
	constID, haveConst := rs.riv.Dict.Lookup(rs.rows[tri].RHS)
	if !haveConst || rs.riv.IDs[tuple] != constID {
		e.vio.Ref(constKey(rs.src[tri], tuple), rs.constViolation(tri, tuple))
	}
}

// constViolation renders the tuple's violation of constant row tri from
// the current table.
func (rs *ruleState) constViolation(tri, tuple int) pfd.Violation {
	return rs.names[tri].Constant(tuple, rs.riv.Value(tuple))
}

// before reports whether row a precedes row b in evaluation order: global
// order when the engine is one shard of a larger table — the order a
// whole-table detection would see — and local row order otherwise.
func (e *Engine) before(a, b int) bool {
	if e.globalID != nil {
		return e.globalID(a) < e.globalID(b)
	}
	return a < b
}

// insert files row r under group g at its place in evaluation order.
func (e *Engine) insert(b *block, g, r int) {
	rows := b.groups[g].rows
	at := len(rows)
	if at > 0 && !e.before(rows[at-1], r) {
		at = sort.Search(at, func(i int) bool { return e.before(r, rows[i]) })
	}
	b.groups[g].rows = slices.Insert(rows, at, r)
}

// remove takes row r out of group g, and the group out of the block with
// its last member. A majority index pointing at the removed group is
// left for the caller's rebuild to replace.
func (e *Engine) remove(b *block, g, r int) {
	rows := b.groups[g].rows
	at := sort.Search(len(rows), func(i int) bool { return !e.before(rows[i], r) })
	if at == len(rows) || rows[at] != r {
		panic(fmt.Sprintf("stream: row %d not filed where evaluation order puts it", r))
	}
	if len(rows) > 1 {
		b.groups[g].rows = slices.Delete(rows, at, at+1)
		return
	}
	b.groups = slices.Delete(b.groups, g, g+1)
	if b.maj > g {
		b.maj--
	}
}

// join adds row r, under its current RHS value, to the block of key. When
// the majority and its witness stay what they were the block owes at most
// one pair more — r against the witness, if r deviates; otherwise the
// block is re-derived.
func (e *Engine) join(rs *ruleState, tri int, key string, r int) {
	b := rs.blocks[tri][key]
	if b == nil { // a new key: track its block from here on
		b = &block{maj: -1}
		rs.blocks[tri][key] = b
	}
	g := b.groupFor(rs.riv.IDs[r])
	if b.maj >= 0 && b.leader(rs.riv.Dict, g, +1) == b.maj && (g != b.maj || e.before(b.witness(), r)) {
		e.insert(b, g, r)
		if g != b.maj {
			e.refPair(rs, tri, b.witness(), r)
		}
		return
	}
	e.release(rs, tri, b)
	e.insert(b, g, r)
	e.rebuild(rs, tri, b)
}

// leave takes row r, filed under RHS value rhs, out of the block of key:
// the reverse of join, with the same fallback.
func (e *Engine) leave(rs *ruleState, tri int, key string, r int, rhs uint32) {
	b := rs.blocks[tri][key]
	g := b.groupFor(rhs)
	if b.leader(rs.riv.Dict, g, -1) == b.maj && (g != b.maj || r != b.witness()) {
		if g != b.maj {
			e.vio.Unref(pairKey(rs.src[tri], b.witness(), r))
		}
		e.remove(b, g, r)
		return
	}
	e.release(rs, tri, b)
	e.remove(b, g, r)
	if len(b.groups) == 0 {
		delete(rs.blocks[tri], key)
		return
	}
	e.rebuild(rs, tri, b)
}

// release unreferences every pair the block owes, ahead of a membership
// change that invalidates them.
func (e *Engine) release(rs *ruleState, tri int, b *block) {
	b.owed(func(w, r int) { e.vio.Unref(pairKey(rs.src[tri], w, r)) })
}

// rebuild derives a block from its membership: it elects the majority
// and references every pair the block owes. A delta falls back to it
// (after release) when a membership change moves the majority or its
// witness.
func (e *Engine) rebuild(rs *ruleState, tri int, b *block) {
	b.maj = b.leader(rs.riv.Dict, -1, 0)
	b.owed(func(w, r int) { e.refPair(rs, tri, w, r) })
}

// refPair references the violation of the witness and a deviating member.
func (e *Engine) refPair(rs *ruleState, tri, w, r int) {
	e.vio.Ref(pairKey(rs.src[tri], w, r), rs.pairViolation(tri, w, r))
}

// pairViolation renders the violation of variable row tri by the witness
// and a deviating member from the current table.
func (rs *ruleState) pairViolation(tri, w, r int) pfd.Violation {
	return rs.names[tri].Pair(w, r, rs.riv.Value(w), rs.riv.Value(r))
}
