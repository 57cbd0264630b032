// Package stream is the incremental detection subsystem: a delta-ingestion
// engine that maintains the violation set of a rule set over a mutating
// table without re-running full detection.
//
// An Engine is built once over a table and a fixed set of PFDs. Batched
// deltas (AppendRows, UpdateCell, DeleteRows) flow through Apply, which
// updates the table, its dictionary-coded column views (intern), the
// per-tableau-row block posting lists (invlist), and the materialized
// violation set — recomputing only the constant-row tuples and
// variable-row pattern groups a delta touches. The maintained invariant,
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
// the same pair. A delta recomputes exactly the touched sources,
// unreferencing their old violations and referencing the new ones; the
// 0↔1 reference transitions form the batch's violation diff.
//
// Each applied batch advances a sequence number and appends its Diff to a
// bounded log, so clients can poll "what changed since seq s" (Since)
// without ever re-reading the full set. An Engine is safe for concurrent
// use; Apply batches serialize on an internal lock.
package stream

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/blocking"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/intern"
	"github.com/anmat/anmat/internal/invlist"
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

// vioEntry is one maintained violation with the number of sources
// currently reporting it.
type vioEntry struct {
	v    pfd.Violation
	refs int
}

// ruleState is the incremental bookkeeping of one PFD. Slices are indexed
// by tableau-row position; only the slot matching the row kind is
// populated (consts for constant rows, blocks/vioOf for variable rows).
type ruleState struct {
	p      *pfd.PFD
	li, ri int
	rows   []tableau.Row
	// emb caches each row's embedded pattern so per-delta matching does
	// not rebuild it.
	emb []pattern.Pattern
	// consts maps, per constant row, a violating tuple to the key of the
	// violation it currently owes.
	consts []map[int]string
	// blocks holds, per variable row, the block posting lists: block key →
	// postings whose TupleID is the member row (RHS carries the member's
	// current determined value for observability).
	blocks []*invlist.List
	// vioOf maps, per variable row, a block key to the keys of the
	// violations that block currently owes.
	vioOf []map[string][]string
	// verd memoizes, per constant row, the embedded pattern's verdict per
	// interned LHS dictionary ID: the DFA runs once over the column's
	// distinct values, not once per cell. IDs are never renumbered (see
	// intern), so the memo survives every delta.
	verd []*intern.Verdicts
}

// Engine maintains the violation set of a rule set over a mutating table.
type Engine struct {
	mu      sync.Mutex
	t       *table.Table
	rules   []*pfd.PFD
	version int64 // table version after the engine's last own mutation

	seq int64
	rs  []*ruleState
	vio map[string]*vioEntry
	// icols are the dictionary-coded views of every column some rule
	// reads (LHS and RHS), keyed by column position. The table maintains
	// them through every delta; detection compares interned IDs.
	icols map[int]*table.Interned

	// extBuf/extBuf2 are extraction scratch buffers reused across rows;
	// two exist because applyUpdate needs before- and after-keys live at
	// once. Apply batches serialize on mu, so engine-owned scratch is
	// safe.
	extBuf, extBuf2 []string
	// touched is the per-batch-op scratch set of (tableau row, block key)
	// sources to re-evaluate, reused across ops.
	touched map[touchKey]bool

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
	// never inserted into the posting lists, so their blocks report no
	// violations. A sharding coordinator gives each shard the filter
	// "keys this shard owns" — each key is then evaluated on exactly one
	// shard, over that shard's complete membership. Constant tableau rows
	// are unaffected. nil tracks every key.
	KeyFilter func(key string) bool
	// GlobalID, when set, maps a local row index to its position in an
	// enclosing global order; block members are evaluated in that order
	// instead of local row order. The blocking pass pairs each deviating
	// row against the *first* row of the majority group, so which pairs
	// are reported depends on member order — a shard whose local order
	// disagrees with the global one (rows migrate in at the end of the
	// local table) must evaluate in global order to report exactly the
	// pairs a whole-table detection would. The mapping is consulted
	// during Apply for the rows it touches and must reflect the table
	// state the current operation leads to. nil means local order.
	GlobalID func(local int) int
}

// NewEngineFrom bootstraps an engine over the table's current contents,
// starting at sequence number baseSeq. The rule set is fixed for the
// engine's lifetime; build a new engine to change it. The bootstrap costs
// about one full detection pass — every delta after that is proportional
// to the data it touches. A holder replacing an engine (table mutated
// externally, rule set changed) passes the old engine's Seq()+1 so client
// cursors keep a consistent timeline: cursors at or before the old seq
// fall outside the fresh (empty) diff log and resolve to a reset snapshot
// instead of an out-of-range error.
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
		vio:       make(map[string]*vioEntry),
		icols:     make(map[int]*table.Interned),
		touched:   make(map[touchKey]bool),
		log:       NewDiffLog(opts.LogCap),
		keyFilter: opts.KeyFilter,
		globalID:  opts.GlobalID,
	}
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
			emb:    make([]pattern.Pattern, len(rows)),
			consts: make([]map[int]string, len(rows)),
			blocks: make([]*invlist.List, len(rows)),
			vioOf:  make([]map[string][]string, len(rows)),
			verd:   make([]*intern.Verdicts, len(rows)),
		}
		for tri, row := range rows {
			rs.emb[tri] = row.LHS.Embedded()
			if row.Variable() {
				rs.blocks[tri] = invlist.NewList()
				rs.vioOf[tri] = make(map[string][]string)
			} else {
				rs.consts[tri] = make(map[int]string)
				rs.verd[tri] = &intern.Verdicts{}
			}
		}
		e.rs = append(e.rs, rs)
		if _, ok := e.icols[li]; !ok {
			e.icols[li] = t.InternedColumn(li)
		}
		if _, ok := e.icols[ri]; !ok {
			e.icols[ri] = t.InternedColumn(ri)
		}
	}

	// Bootstrap the maintained state over the coded columns. Constant
	// rows run the compiled DFA once per distinct LHS value (memoized per
	// dictionary ID) and compare RHS IDs against the interned constant;
	// variable rows extract block keys per tuple into a reused scratch
	// buffer and then evaluate each block once.
	d := newBatchDiff()
	for rsi, rs := range e.rs {
		liv, riv := e.icols[rs.li], e.icols[rs.ri]
		for tri, row := range rs.rows {
			if !row.Variable() {
				constID, haveConst := riv.Dict.Lookup(row.RHS)
				emb := rs.emb[tri]
				verd := rs.verd[tri]
				for r, id := range liv.IDs {
					match, known := verd.Known(id)
					if !known {
						match = emb.MatchesDFA(liv.Dict.Value(id))
						verd.Set(id, match)
					}
					if !match {
						continue
					}
					if rid := riv.IDs[r]; !haveConst || rid != constID {
						v := pfd.ConstantViolation(rs.p, row, r, liv.Dict.Value(id), riv.Dict.Value(rid))
						rs.consts[tri][r] = e.ref(v, d)
					}
				}
				continue
			}
			touched := make(map[string]bool)
			for r, id := range liv.IDs {
				e.extBuf = e.extractInto(e.extBuf[:0], row, liv.Dict.Value(id))
				for _, key := range e.extBuf {
					rs.blocks[tri].Insert(key, invlist.Posting{TupleID: r, RHS: riv.Value(r)})
					touched[key] = true
				}
			}
			for key := range touched {
				e.recomputeBlock(rsi, tri, key, d)
			}
		}
	}
	d.release()
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
// table.
func (e *Engine) Violations() []pfd.Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.violationsLocked()
}

func (e *Engine) violationsLocked() []pfd.Violation {
	out := make([]pfd.Violation, 0, len(e.vio))
	for _, ent := range e.vio {
		out = append(out, ent.v)
	}
	detect.SortViolations(out)
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
	// IndexedColumns is the number of dictionary-coded column views the
	// engine maintains (every LHS and RHS column of the rule set).
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
		Violations: len(e.vio), IndexedColumns: len(e.icols), LogLen: e.log.Len(),
	}
	for _, rs := range e.rs {
		for _, bl := range rs.blocks {
			if bl != nil {
				st.Blocks += bl.Len()
			}
		}
	}
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
	d := newBatchDiff()
	for _, op := range batch {
		switch op.Kind {
		case OpAppend:
			e.applyAppend(op.Rows, d)
			opsAppend.Inc()
		case OpUpdate:
			e.applyUpdate(op.Row, op.Column, op.Value, d)
			opsUpdate.Inc()
		case OpDelete:
			e.applyDelete(op.Drop, d)
			opsDelete.Inc()
		}
		e.version = e.t.Version()
	}
	e.seq++
	diff := d.finalize(e.seq, e.t.NumRows(), e.vio)
	d.release()
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
// a full snapshot is returned with Reset set. A cursor ahead of the
// engine is an error. (The merge itself lives in DiffLog, shared with the
// sharding coordinator.)
func (e *Engine) Since(seq int64) (*Diff, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Merge(seq, e.seq, e.t.NumRows(), e.violationsLocked)
}

// extractInto appends a variable tableau row's block keys for one LHS
// value to dst, dropping keys the engine's KeyFilter rejects. Callers
// pass an engine-owned scratch buffer (ops serialize on mu).
func (e *Engine) extractInto(dst []string, row tableau.Row, lv string) []string {
	start := len(dst)
	dst = row.LHS.AppendExtract(dst, lv)
	if e.keyFilter == nil {
		return dst
	}
	kept := dst[:start]
	for _, k := range dst[start:] {
		if e.keyFilter(k) {
			kept = append(kept, k)
		}
	}
	return kept
}

// ---- delta application ----

// touchKey names one (tableau row, block key) source to re-evaluate.
type touchKey struct {
	tri int
	key string
}

func (e *Engine) applyAppend(rows [][]string, d *batchDiff) {
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
	for rsi, rs := range e.rs {
		clear(e.touched)
		for n := start; n < e.t.NumRows(); n++ {
			lv := e.t.Cell(n, rs.li)
			for tri, row := range rs.rows {
				if !row.Variable() {
					e.recomputeConst(rsi, tri, n, d)
					continue
				}
				e.extBuf = e.extractInto(e.extBuf[:0], row, lv)
				for _, key := range e.extBuf {
					rs.blocks[tri].Insert(key, invlist.Posting{TupleID: n, RHS: e.t.Cell(n, rs.ri)})
					e.touched[touchKey{tri, key}] = true
				}
			}
		}
		for tk := range e.touched {
			e.recomputeBlock(rsi, tk.tri, tk.key, d)
		}
	}
}

func (e *Engine) applyUpdate(rowIdx int, column, value string, d *batchDiff) {
	ci, _ := e.t.ColIndex(column) // validated
	value = table.NormalizeCell(value)
	old := e.t.Cell(rowIdx, ci)
	if old == value {
		return
	}
	e.t.SetCell(rowIdx, ci, value)
	for rsi, rs := range e.rs {
		if rs.li != ci && rs.ri != ci {
			continue
		}
		for tri, row := range rs.rows {
			if !row.Variable() {
				e.recomputeConst(rsi, tri, rowIdx, d)
				continue
			}
			// Move the tuple between blocks (LHS change) and/or refresh
			// its determined value (RHS change), then re-evaluate every
			// block the tuple left or joined.
			lhsNow := e.t.Cell(rowIdx, rs.li)
			lhsBefore := lhsNow
			if rs.li == ci {
				lhsBefore = old
			}
			rhsNow := e.t.Cell(rowIdx, rs.ri)
			touched := make(map[string]bool)
			e.extBuf = e.extractInto(e.extBuf[:0], row, lhsBefore)
			for _, key := range e.extBuf {
				rs.blocks[tri].Remove(key, rowIdx)
				touched[key] = true
			}
			e.extBuf2 = e.extractInto(e.extBuf2[:0], row, lhsNow)
			for _, key := range e.extBuf2 {
				rs.blocks[tri].Insert(key, invlist.Posting{TupleID: rowIdx, RHS: rhsNow})
				touched[key] = true
			}
			for key := range touched {
				e.recomputeBlock(rsi, tri, key, d)
			}
		}
	}
}

func (e *Engine) applyDelete(drop []int, d *batchDiff) {
	// Dedupe and sort the targets.
	set := make(map[int]bool, len(drop))
	for _, r := range drop {
		set[r] = true
	}
	targets := make([]int, 0, len(set))
	for r := range set {
		targets = append(targets, r)
	}
	sort.Ints(targets)

	// A delete renumbers every surviving row, so every maintained
	// violation may change its rendering: snapshot them all into the
	// batch diff before touching anything.
	for k, ent := range e.vio {
		d.touch(k, ent)
	}

	// Drop the deleted tuples from every source, and clear the violations
	// of every block that loses a member — any violation mentioning a
	// deleted row lives in such a block (or in a constant source of the
	// row itself), so after this pass no maintained violation references a
	// deleted row and renumbering is total.
	type varKey struct {
		rsi, tri int
		key      string
	}
	affected := make(map[varKey]bool)
	for rsi, rs := range e.rs {
		for tri, row := range rs.rows {
			if !row.Variable() {
				for _, r := range targets {
					if key, ok := rs.consts[tri][r]; ok {
						e.unref(key, d)
						delete(rs.consts[tri], r)
					}
				}
				continue
			}
			for _, r := range targets {
				e.extBuf = e.extractInto(e.extBuf[:0], row, e.t.Cell(r, rs.li))
				for _, key := range e.extBuf {
					rs.blocks[tri].Remove(key, r)
					affected[varKey{rsi, tri, key}] = true
				}
			}
		}
	}
	for vk := range affected {
		rs := e.rs[vk.rsi]
		for _, key := range rs.vioOf[vk.tri][vk.key] {
			e.unref(key, d)
		}
		delete(rs.vioOf[vk.tri], vk.key)
	}

	// Compact the table (which compacts the coded column views in step)
	// and renumber everything that survived. Dictionary IDs are never
	// renumbered, so the per-ID verdict memos stay valid.
	_, _ = e.t.DeleteRows(targets...) // validated in-range
	remap := RemapFor(targets)
	keyMap := make(map[string]string, len(e.vio))
	newVio := make(map[string]*vioEntry, len(e.vio))
	for k, ent := range e.vio {
		nv := renumberViolation(ent.v, remap)
		nk := nv.Key()
		keyMap[k] = nk
		newVio[nk] = &vioEntry{v: nv, refs: ent.refs}
		// The renumbered key may be brand new this batch; record that it
		// was absent at batch start so the diff reports the re-addition.
		// (If nk was live at batch start it is already snapshotted: every
		// key live at delete time was, and keys removed earlier in the
		// batch were touched when removed.)
		d.touch(nk, nil)
	}
	e.vio = newVio
	for _, rs := range e.rs {
		for tri, row := range rs.rows {
			if !row.Variable() {
				renumbered := make(map[int]string, len(rs.consts[tri]))
				for tuple, key := range rs.consts[tri] {
					nt, _ := remap(tuple) // deleted tuples were dropped above
					renumbered[nt] = keyMap[key]
				}
				rs.consts[tri] = renumbered
				continue
			}
			rs.blocks[tri].RenumberTuples(remap)
			for blockKey, keys := range rs.vioOf[tri] {
				for i, key := range keys {
					keys[i] = keyMap[key]
				}
				rs.vioOf[tri][blockKey] = keys
			}
		}
	}

	// Re-evaluate the blocks that lost members, now in the new numbering.
	for vk := range affected {
		e.recomputeBlock(vk.rsi, vk.tri, vk.key, d)
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

// ---- per-source recomputation ----

// recomputeConst re-evaluates one (rule, constant tableau row, tuple)
// source against the current table.
func (e *Engine) recomputeConst(rsi, tri, tuple int, d *batchDiff) {
	rs := e.rs[rsi]
	row := rs.rows[tri]
	if key, ok := rs.consts[tri][tuple]; ok {
		e.unref(key, d)
		delete(rs.consts[tri], tuple)
	}
	liv, riv := e.icols[rs.li], e.icols[rs.ri]
	id := liv.IDs[tuple]
	verd := rs.verd[tri]
	match, known := verd.Known(id)
	if !known {
		match = rs.emb[tri].MatchesDFA(liv.Dict.Value(id))
		verd.Set(id, match)
	}
	if !match {
		return
	}
	constID, haveConst := riv.Dict.Lookup(row.RHS)
	if rid := riv.IDs[tuple]; !haveConst || rid != constID {
		v := pfd.ConstantViolation(rs.p, row, tuple, liv.Dict.Value(id), riv.Dict.Value(rid))
		rs.consts[tri][tuple] = e.ref(v, d)
	}
}

// recomputeBlock re-evaluates one (rule, variable tableau row, block key)
// source: it rebuilds the block from the maintained postings and reports
// exactly the conflicts full detection's blocking pass would.
func (e *Engine) recomputeBlock(rsi, tri int, key string, d *batchDiff) {
	rs := e.rs[rsi]
	row := rs.rows[tri]
	for _, k := range rs.vioOf[tri][key] {
		e.unref(k, d)
	}
	delete(rs.vioOf[tri], key)
	ps := rs.blocks[tri].Postings(key)
	if len(ps) < 2 {
		return
	}
	rows := make([]int, len(ps))
	for i, p := range ps {
		rows[i] = p.TupleID
	}
	// Member order decides which pairs the blocking pass reports (each
	// deviating row is paired against the first majority-group row), so
	// evaluate in global order when the engine is one shard of a larger
	// table — that is the order a whole-table detection would use.
	if e.globalID != nil {
		sort.Slice(rows, func(i, j int) bool { return e.globalID(rows[i]) < e.globalID(rows[j]) })
	} else {
		sort.Ints(rows)
	}
	b := blocking.Block{Key: key, Rows: rows, RHSVals: make([]string, len(rows))}
	for i, r := range rows {
		b.RHSVals[i] = e.t.Cell(r, rs.ri)
	}
	var keys []string
	for _, c := range b.Conflicts(true) {
		v := pfd.VariableViolation(rs.p, row, c.I, c.J, c.RHSI, c.RHSJ)
		keys = append(keys, e.ref(v, d))
	}
	if len(keys) > 0 {
		rs.vioOf[tri][key] = keys
	}
}

// ---- violation reference counting and batch diffs ----

// ref adds one source reference to the violation and returns its key.
// When the key is already tracked the stored rendering is refreshed: the
// caller just computed v from the current table, while the entry may hold
// bytes from before this delta (two sources can owe the same violation —
// ambiguous extractions put a pair in several blocks — and sequential
// recomputation then never passes through zero references).
func (e *Engine) ref(v pfd.Violation, d *batchDiff) string {
	k := v.Key()
	ent := e.vio[k]
	d.touch(k, ent)
	if ent == nil {
		e.vio[k] = &vioEntry{v: v, refs: 1}
	} else {
		ent.refs++
		ent.v = v
	}
	return k
}

// unref drops one source reference, deleting the violation when no source
// reports it any more.
func (e *Engine) unref(k string, d *batchDiff) {
	ent := e.vio[k]
	if ent == nil {
		return
	}
	d.touch(k, ent)
	ent.refs--
	if ent.refs <= 0 {
		delete(e.vio, k)
	}
}

// batchDiff records, per violation key touched during one batch, the
// violation's rendering at batch start (nil = absent), so the batch's net
// diff falls out of comparing that snapshot with the final state.
type batchDiff struct {
	prior map[string]*pfd.Violation
}

// diffPool recycles batchDiff scratch across Apply calls: the prior map
// retains its buckets, so steady-state single-row batches stop paying a
// map allocation per delta.
var diffPool = sync.Pool{
	New: func() any { return &batchDiff{prior: make(map[string]*pfd.Violation)} },
}

func newBatchDiff() *batchDiff { return diffPool.Get().(*batchDiff) }

// release clears the scratch and returns it to the pool. The finalized
// Diff copies every violation it reports, so nothing aliases the map.
func (d *batchDiff) release() {
	clear(d.prior)
	diffPool.Put(d)
}

// touch records the batch-start state of a key the first time the key is
// modified within the batch.
func (d *batchDiff) touch(k string, ent *vioEntry) {
	if _, done := d.prior[k]; done {
		return
	}
	if ent == nil {
		d.prior[k] = nil
		return
	}
	v := ent.v
	d.prior[k] = &v
}

// finalize compares every touched key's batch-start state with the final
// state and renders the net diff in the engine's violation order.
func (d *batchDiff) finalize(seq int64, rows int, vio map[string]*vioEntry) *Diff {
	out := &Diff{Seq: seq, Rows: rows}
	for k, prior := range d.prior {
		cur := vio[k]
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
