// Package stream is the incremental detection subsystem: a delta-ingestion
// engine that maintains the violation set of a rule set over a mutating
// table without re-running full detection.
//
// An Engine is built once over a table and a fixed set of PFDs. Batched
// deltas (AppendRows, UpdateCell, DeleteRows) flow through Apply, which
// updates the table (dictionary-coded columns, table.Interned), the
// per-block majority state of every variable tableau row, and the
// materialized violation set — touching only the constant-row tuples and
// the block memberships a delta changes. The maintained invariant,
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
// variable tableau row, block key) triple — and carries a reference
// count, since ambiguous pattern extractions can make two blocks report
// the same pair. What a block owes follows from its state — every member
// outside the majority RHS group, paired with that group's first member —
// so a delta references and unreferences the pairs its membership change
// adds or removes, and re-derives a block only when its majority or
// witness moves. The 0↔1 reference transitions form the batch's diff.
//
// Each applied batch advances a sequence number and appends its Diff to a
// bounded log, so clients can poll "what changed since seq s" (Since)
// without re-reading the full set; the log also carries the sorted full
// set, patched by each diff. An Engine is safe for concurrent use; Apply
// batches serialize on an internal lock.
package stream

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/intern"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pattern"
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

// vioEntry is one maintained violation with the number of sources
// currently reporting it.
type vioEntry struct {
	v    pfd.Violation
	refs int
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
// populated (verd for constant rows, blocks for variable rows).
type ruleState struct {
	p      *pfd.PFD
	li, ri int
	// liv/riv are the table's LHS and RHS columns.
	// The table maintains them through every delta; detection compares
	// interned IDs and decodes strings only to render a violation.
	liv, riv *table.Interned
	rows     []tableau.Row
	// emb caches each row's embedded pattern so per-delta matching does
	// not rebuild it.
	emb []pattern.Pattern
	// src is each row's violation-key identity: an index per distinct
	// (rule ID, columns, row rendering). Sources that render equal keys —
	// a rule listed twice — share it, as full detection dedupes them.
	src []int32
	// blocks holds, per variable row, the state of every tracked block.
	blocks []map[string]*block
	// verd memoizes, per constant row, the embedded pattern's verdict per
	// interned LHS dictionary ID (see matches). IDs are never renumbered
	// (see intern), so the memo survives every delta.
	verd []*intern.Verdicts
}

// matches reports whether the LHS value with dictionary ID id matches the
// constant row's embedded pattern, running the DFA at most once per ID.
func (rs *ruleState) matches(tri int, id uint32) bool {
	match, known := rs.verd[tri].Known(id)
	if !known {
		match = rs.emb[tri].MatchesDFA(rs.liv.Dict.Value(id))
		rs.verd[tri].Set(id, match)
	}
	return match
}

// block returns the state of the variable row's block under key, tracking
// an empty one from here on when the key is new.
func (rs *ruleState) block(tri int, key string) *block {
	b := rs.blocks[tri][key]
	if b == nil {
		b = &block{maj: -1}
		rs.blocks[tri][key] = b
	}
	return b
}

// Engine maintains the violation set of a rule set over a mutating table.
type Engine struct {
	mu      sync.Mutex
	t       *table.Table
	rules   []*pfd.PFD
	version int64 // table version after the engine's last own mutation

	seq int64
	rs  []*ruleState
	vio map[vioKey]*vioEntry

	// Per-batch scratch, safe to own because batches serialize on mu:
	// extBuf backs extract, prior records the batch-start rendering (nil =
	// absent) of every violation key the running batch has modified.
	extBuf []string
	prior  map[vioKey]*pfd.Violation

	log *DiffLog

	// keyFilter and globalID are the sharding hooks of EngineOptions.
	keyFilter func(key string) bool
	globalID  func(local int) int

	// sink, when set, is the write-ahead journal hook: Apply calls it with
	// the batch and the sequence number the batch will receive, after
	// validation but before any mutation. A sink error aborts the batch
	// untouched. Replay never calls it.
	sink func(ctx context.Context, seq int64, batch Batch) error
}

// EngineOptions tunes NewEngineOpts. The zero value reproduces NewEngineFrom at sequence 0.
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
	// during Apply for the rows it touches and must reflect the table
	// state the current operation leads to; two live rows never swap
	// order. nil means local order.
	GlobalID func(local int) int
}

// NewEngineFrom bootstraps an engine over the table's current contents,
// starting at sequence number baseSeq. The rule set is fixed for the
// engine's lifetime; build a new engine to change it. The bootstrap costs
// about one full detection pass. After it an append or a cell update
// costs in proportion to the memberships and violations it changes (plus
// one copy of the sorted set when it changes any), not to the blocks it
// touches — unless it moves a block's majority or witness, which
// re-derives that block. A delete renumbers rows: it visits everything.
// A holder replacing an engine (table mutated externally, rule set
// changed) passes the old engine's Seq()+1 so client cursors keep a
// consistent timeline: cursors at or before the old seq fall outside the
// fresh (empty) diff log and resolve to a reset snapshot instead of an
// out-of-range error.
func NewEngineFrom(t *table.Table, rules []*pfd.PFD, baseSeq int64) (*Engine, error) {
	return NewEngineOpts(t, rules, EngineOptions{BaseSeq: baseSeq})
}

// NewEngineOpts is NewEngineFrom with the full option set.
func NewEngineOpts(t *table.Table, rules []*pfd.PFD, opts EngineOptions) (*Engine, error) {
	// One span per bootstrap — the detection-pass-equivalent cost every
	// later delta amortizes; per-row work stays uninstrumented.
	defer obs.Span(context.Background(), "stream.bootstrap")()
	e := &Engine{
		t:         t,
		rules:     rules,
		seq:       opts.BaseSeq,
		vio:       make(map[vioKey]*vioEntry),
		prior:     make(map[vioKey]*pfd.Violation),
		keyFilter: opts.KeyFilter,
		globalID:  opts.GlobalID,
	}
	type srcIdent struct{ id, lhs, rhs, row string }
	srcs := make(map[srcIdent]int32)
	for _, p := range rules {
		li, ok := t.ColIndex(p.LHS)
		if !ok {
			return nil, fmt.Errorf("stream %s: no column %q", p.ID(), p.LHS)
		}
		ri, ok := t.ColIndex(p.RHS)
		if !ok {
			return nil, fmt.Errorf("stream %s: no column %q", p.ID(), p.RHS)
		}
		rows := p.Tableau.Rows()
		rs := &ruleState{
			p: p, li: li, ri: ri, rows: rows,
			liv:    t.InternedColumn(li),
			riv:    t.InternedColumn(ri),
			emb:    make([]pattern.Pattern, len(rows)),
			src:    make([]int32, len(rows)),
			blocks: make([]map[string]*block, len(rows)),
			verd:   make([]*intern.Verdicts, len(rows)),
		}
		for tri, row := range rows {
			rs.emb[tri] = row.LHS.Embedded()
			ident := srcIdent{p.ID(), p.LHS, p.RHS, row.String()}
			if _, ok := srcs[ident]; !ok {
				srcs[ident] = int32(len(srcs))
			}
			rs.src[tri] = srcs[ident]
			if row.Variable() {
				rs.blocks[tri] = make(map[string]*block)
			} else {
				rs.verd[tri] = &intern.Verdicts{}
			}
		}
		e.rs = append(e.rs, rs)
	}

	// Bootstrap the maintained state over the coded columns. Constant
	// rows compare RHS IDs against the interned constant wherever the LHS
	// matches; variable rows file each tuple under its RHS group in every
	// block its LHS extracts, then derive each block once.
	for _, rs := range e.rs {
		liv, riv := rs.liv, rs.riv
		for tri, row := range rs.rows {
			if !row.Variable() {
				constID, haveConst := riv.Dict.Lookup(row.RHS)
				for r, id := range liv.IDs {
					if rs.matches(tri, id) && (!haveConst || riv.IDs[r] != constID) {
						e.refConst(rs, tri, r)
					}
				}
				continue
			}
			for r, id := range liv.IDs {
				for _, key := range e.extract(row, liv.Dict.Value(id)) {
					b := rs.block(tri, key)
					e.insert(b, b.groupFor(riv.IDs[r]), r)
				}
			}
			for _, b := range rs.blocks[tri] {
				e.rebuild(rs, tri, b)
			}
		}
	}
	// Bootstrap's own "diff" adds the whole set, sorted: the log's base.
	e.log = NewDiffLog(opts.LogCap, e.finalize().Added)
	e.version = t.Version()
	return e, nil
}

// Stale reports whether the table was mutated outside the engine (e.g. a
// direct detect.Apply) since the engine's last delta, invalidating its
// maintained state. A stale engine refuses further deltas; rebuild it.
func (e *Engine) Stale() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t.Version() != e.version
}

// Seq returns the sequence number of the last applied batch (0 right
// after bootstrap).
func (e *Engine) Seq() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Rules returns the engine's rule set (shared slice; do not mutate).
func (e *Engine) Rules() []*pfd.PFD { return e.rules }

// Violations returns the maintained violation set in the engine's total
// order — byte-identical to a fresh full detection over the current
// table. It is the log's shared snapshot: free to return, not to be
// modified by the caller, never written by a later batch.
func (e *Engine) Violations() []pfd.Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Snapshot()
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
}

// Stats returns a snapshot of the engine's maintained state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Seq: e.seq, Rows: e.t.NumRows(), Rules: len(e.rules),
		Violations: len(e.vio), LogLen: e.log.Len(),
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

// SetSink installs the write-ahead journal hook: a function Apply calls —
// under the engine lock, after validating the batch, before mutating
// anything — with the batch and the sequence number it is about to
// receive. A sink error aborts the batch with nothing applied, so a batch
// is never in memory without being durably journaled first. Replay
// bypasses the sink (replayed batches are already in the journal).
// Pass nil to detach.
func (e *Engine) SetSink(fn func(ctx context.Context, seq int64, batch Batch) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = fn
}

// Apply validates the batch, journals it through the sink (when one is
// set), applies it atomically, and returns the violation diff. On a
// validation or journaling error nothing is applied. Applying to a stale
// engine (table mutated externally) fails.
func (e *Engine) Apply(batch Batch) (*Diff, error) {
	return e.apply(context.Background(), batch, true)
}

// ApplyCtx is Apply carrying the caller's context: the apply span (and
// the journal sink's spans under it) join the context's active trace,
// so a server request's trace shows where the batch spent its time.
func (e *Engine) ApplyCtx(ctx context.Context, batch Batch) (*Diff, error) {
	return e.apply(ctx, batch, true)
}

// Replay is Apply without the journal hook: the recovery path uses it to
// re-apply batches read back from the write-ahead log, which must not be
// journaled a second time. Diffs still land in the Since log, so cursors
// spanning replayed batches resolve exactly.
func (e *Engine) Replay(batch Batch) (*Diff, error) {
	return e.apply(context.Background(), batch, false)
}

func (e *Engine) apply(ctx context.Context, batch Batch, journal bool) (*Diff, error) {
	ctx, endSpan := obs.StartSpan(ctx, "stream.apply")
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.t.Version() != e.version {
		endSpan(nil)
		return nil, fmt.Errorf("stream: table mutated outside the engine (version %d, engine at %d); rebuild the engine", e.t.Version(), e.version)
	}
	if err := validate(e.t, batch); err != nil {
		err = fmt.Errorf("stream: invalid batch: %w", err)
		endSpan(err)
		return nil, err
	}
	obs.SetSpanAttrs(ctx, "seq", strconv.FormatInt(e.seq+1, 10), "ops", strconv.Itoa(len(batch)))
	if journal && e.sink != nil {
		if err := e.sink(ctx, e.seq+1, batch); err != nil {
			err = fmt.Errorf("stream: journal batch %d: %w", e.seq+1, err)
			endSpan(err)
			return nil, err
		}
	}
	defer endSpan(nil)
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
		e.version = e.t.Version()
	}
	e.seq++
	diff := e.finalize()
	e.log.Append(diff)
	applyDur.Observe(time.Since(start).Seconds())
	batchesApplied.Inc()
	difflogDepth.Set(float64(e.log.Len()))
	violationSize.Set(float64(len(e.vio)))
	return diff, nil
}

// Since merges the retained per-batch diffs after the cursor into one net
// diff: violations both added and removed in the span cancel out, and a
// violation whose bytes changed appears in both lists. When the cursor
// predates the retained log the change cannot be expressed as a diff and
// the full (shared, immutable) snapshot is returned with Reset set. A
// cursor ahead of the engine is an error. (The merge itself lives in
// DiffLog, shared with the sharding coordinator.)
func (e *Engine) Since(seq int64) (*Diff, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Merge(seq, e.seq, e.t.NumRows())
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
	for k, ent := range e.vio {
		e.touch(k, ent)
	}

	// Drop what the deleted tuples' own constant sources owe and release
	// every block that loses a member: any violation mentioning a deleted
	// row is owed by such a source, so afterwards none does and the
	// renumbering is total. The renumbering pass trims the memberships.
	for _, rs := range e.rs {
		for tri, row := range rs.rows {
			for _, r := range targets {
				if !row.Variable() {
					e.unref(constKey(rs.src[tri], r))
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
	newVio := make(map[vioKey]*vioEntry, len(e.vio))
	for k, ent := range e.vio {
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
		e.touch(nk, nil)
	}
	e.vio = newVio
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
	e.unref(constKey(rs.src[tri], tuple))
	if !rs.matches(tri, rs.liv.IDs[tuple]) {
		return
	}
	constID, haveConst := rs.riv.Dict.Lookup(rs.rows[tri].RHS)
	if !haveConst || rs.riv.IDs[tuple] != constID {
		e.refConst(rs, tri, tuple)
	}
}

// refConst records that the tuple violates the constant tableau row.
func (e *Engine) refConst(rs *ruleState, tri, tuple int) {
	v := pfd.ConstantViolation(rs.p, rs.rows[tri], tuple, rs.liv.Value(tuple), rs.riv.Value(tuple))
	e.ref(constKey(rs.src[tri], tuple), v)
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
	b := rs.block(tri, key)
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
			e.unref(pairKey(rs.src[tri], b.witness(), r))
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
	b.owed(func(w, r int) { e.unref(pairKey(rs.src[tri], w, r)) })
}

// rebuild derives a block from its membership: it elects the majority
// and references every pair the block owes. Bootstrap builds every block
// with it, and a delta falls back to it (after release) when a membership
// change moves the majority or its witness.
func (e *Engine) rebuild(rs *ruleState, tri int, b *block) {
	b.maj = b.leader(rs.riv.Dict, -1, 0)
	b.owed(func(w, r int) { e.refPair(rs, tri, w, r) })
}

// refPair references the violation of the witness and a deviating member,
// rendered from the current table.
func (e *Engine) refPair(rs *ruleState, tri, w, r int) {
	v := pfd.VariableViolation(rs.p, rs.rows[tri], w, r, rs.riv.Value(w), rs.riv.Value(r))
	e.ref(pairKey(rs.src[tri], w, r), v)
}

// ---- violation reference counting and batch diffs ----

// ref adds one source reference to the violation. When the key is already
// tracked the stored rendering is refreshed: the caller just rendered v
// from the current table, while the entry may hold bytes from before
// this delta (two sources can owe the same violation — ambiguous
// extractions put a pair in several blocks — and sequential maintenance
// then never passes through zero references).
func (e *Engine) ref(k vioKey, v pfd.Violation) {
	ent := e.vio[k]
	e.touch(k, ent)
	if ent == nil {
		e.vio[k] = &vioEntry{v: v, refs: 1}
	} else {
		ent.refs++
		ent.v = v
	}
}

// unref drops one source reference, deleting the violation when no source
// reports it any more.
func (e *Engine) unref(k vioKey) {
	ent := e.vio[k]
	if ent == nil {
		return
	}
	e.touch(k, ent)
	ent.refs--
	if ent.refs <= 0 {
		delete(e.vio, k)
	}
}

// touch records the batch-start state of a key (nil = absent) the first
// time the key is modified within the batch, so the batch's net diff
// falls out of comparing that record with the final state.
func (e *Engine) touch(k vioKey, ent *vioEntry) {
	if _, done := e.prior[k]; done {
		return
	}
	if ent == nil {
		e.prior[k] = nil
		return
	}
	v := ent.v
	e.prior[k] = &v
}

// finalize compares every touched key's batch-start state with the final
// state, renders the net diff in the engine's violation order, and
// clears the record for the next batch.
func (e *Engine) finalize() *Diff {
	out := &Diff{Seq: e.seq, Rows: e.t.NumRows()}
	for k, prior := range e.prior {
		cur := e.vio[k]
		switch {
		case prior == nil && cur != nil:
			out.Added = append(out.Added, cur.v)
		case prior != nil && cur == nil:
			out.Removed = append(out.Removed, *prior)
		case prior != nil && cur != nil:
			if !SameRendering(*prior, cur.v) {
				out.Removed = append(out.Removed, *prior)
				out.Added = append(out.Added, cur.v)
			}
		}
	}
	if len(e.prior) > 64 {
		// A delete records every violation, and clearing a map costs its
		// capacity on every later batch: let a large one go.
		e.prior = make(map[vioKey]*pfd.Violation)
	}
	clear(e.prior)
	detect.SortViolations(out.Added)
	detect.SortViolations(out.Removed)
	return out
}

// SameRendering reports whether two violations with the same key (same
// rule, tableau row, and cells) also agree on the value fields, i.e. are
// byte-identical. Exported for the sharding coordinator, which diffs
// merged violation maps with the same equality.
func SameRendering(a, b pfd.Violation) bool {
	return a.Observed == b.Observed && a.Expected == b.Expected && a.Variable == b.Variable
}
