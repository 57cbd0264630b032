// Package shard scales incremental detection out across K partitions of
// one table. PFD semantics partition naturally: a variable tableau row
// only ever compares tuples that share a block key (the constrained
// segments extracted from the LHS value), and a constant tableau row is
// evaluated per tuple in isolation — so a table hash-partitioned on block
// keys can be detected shard by shard with zero cross-shard
// communication.
//
// The Coordinator owns the global table and splits its rows over K
// shards:
//
//   - every row lives on its round-robin *home* shard (global row index
//     mod K at insertion time), which guarantees each constant tableau
//     row evaluates it somewhere;
//   - additionally, a row lives on every shard that *owns* (by consistent
//     hash, see Owner) one of the block keys its LHS values extract. The
//     owner of a key therefore holds the key's complete membership, and
//     each key is evaluated on exactly one shard — the per-shard engines
//     carry a stream.EngineOptions.KeyFilter restricting them to the keys
//     they own, so partial replicas of a block never produce pairs.
//
// The batch protocol (validation, write-ahead sink, numbering, diff log,
// poisoning) is the stream.Sequencer the coordinator embeds, as the single
// engine does. Its step works in two phases, so shards can live behind a
// network (internal/cluster):
//
//   - the Translator turns each global delta batch into per-shard
//     NodeOps — engine operations plus the local→global mapping
//     directives that keep every shard's row numbering in lockstep with
//     the global table (appends route by key and home, updates migrate a
//     row between shards when its block keys move, deletes renumber both
//     the global and the per-shard row spaces);
//   - the translated batches fan out concurrently over the Node
//     interface (in-process LocalNodes here, HTTP workers in
//     internal/cluster), and the globalized per-shard results merge into
//     a set byte-identical to a fresh detect.DetectAllContext over the
//     global table at any K and any parallelism (the replay-equivalence
//     property tests, K ∈ {1,2,4,8}).
//
// The one ordering subtlety: the blocking pass pairs each deviating tuple
// against the *first* tuple of a block's majority group, so which pairs
// exist depends on member order. Rows that migrate onto a shard append at
// the end of its local table, making local order diverge from global
// order; the engines therefore evaluate blocks in global order via
// stream.EngineOptions.GlobalID, and the nodes re-canonicalize pair
// renderings (tuple order, observed/expected orientation) after
// renumbering.
package shard

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// fnv64a constants (hash/fnv), inlined so hashing a key allocates
// neither the hasher nor a byte-slice copy of the string.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Owner returns the shard owning a block key among k shards: a consistent
// (jump) hash of the FNV-64a of the key bytes, so growing K from k to
// k+1 moves only ~1/(k+1) of the keys.
func Owner(key string, k int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return jump(h, k)
}

// jump is Lamping & Veach's jump consistent hash: maps a 64-bit key to a
// bucket in [0, buckets) with minimal movement as buckets grows.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ruleMeta caches what the router needs per rule: the LHS column index
// and the variable tableau rows' constrained patterns.
type ruleMeta struct {
	li   int
	vars []pattern.Constrained
}

// localRef records that a row lives on one shard at one local index.
type localRef struct {
	shard int32
	local int32
}

// rowPlace records where one global row lives.
type rowPlace struct {
	// home is the round-robin shard assigned at insertion; it keeps the
	// row evaluated by constant tableau rows even when it extracts no
	// block keys.
	home int32
	// locals lists each hosting shard and the row's local index there
	// (home included). A row hosts on very few shards — home plus the
	// owners of its block keys — so a linear-scanned slice beats the
	// per-row map it replaced by an allocation per row.
	locals []localRef
}

func (p *rowPlace) local(s int) (int, bool) {
	for _, lr := range p.locals {
		if int(lr.shard) == s {
			return int(lr.local), true
		}
	}
	return 0, false
}

func (p *rowPlace) setLocal(s, l int) {
	for i := range p.locals {
		if int(p.locals[i].shard) == s {
			p.locals[i].local = int32(l)
			return
		}
	}
	p.locals = append(p.locals, localRef{shard: int32(s), local: int32(l)})
}

func (p *rowPlace) deleteLocal(s int) {
	for i := range p.locals {
		if int(p.locals[i].shard) == s {
			p.locals = append(p.locals[:i], p.locals[i+1:]...)
			return
		}
	}
}

// Translator is the routing half of the coordinator: it owns the global
// table and the placement bookkeeping (which shard hosts which row at
// which local index) and turns global delta batches into per-shard
// NodeOps. It holds no engines, so it is also the replay shadow the
// cluster failover path runs over a snapshot + WAL to reconstruct a lost
// shard's boot state — placement depends on history (a row's home shard
// is fixed at insertion time), not just on current cell values.
type Translator struct {
	t     *table.Table
	rules []*pfd.PFD
	meta  []ruleMeta
	k     int
	rows  []rowPlace // indexed by global row
	// globalOf mirrors each node's local→global mapping. It is NOT
	// necessarily monotone: rows migrating onto a shard append at the
	// local end regardless of their global position.
	globalOf [][]int
	// keyBuf/shardBuf are reusable routing scratch for shardsOf. The
	// translator is single-writer — construction is sequential and the
	// coordinator serializes Translate under its lock — so plain fields
	// are safe. Boot deliberately avoids them: it runs concurrently
	// across shards during bootstrap.
	keyBuf   []string
	shardBuf []int32
}

// NewTranslator routes the table's current rows over k shards and
// returns the placement bookkeeping. The table is shared, not copied:
// Translate mutates it exactly like the engine the batches are bound
// for.
func NewTranslator(t *table.Table, rules []*pfd.PFD, k int) (*Translator, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards (want >= 1)", k)
	}
	tr := &Translator{t: t, rules: rules, k: k, globalOf: make([][]int, k)}
	for _, p := range rules {
		li, ok := t.ColIndex(p.LHS)
		if !ok {
			return nil, fmt.Errorf("shard %s: no column %q", p.ID(), p.LHS)
		}
		if _, ok := t.ColIndex(p.RHS); !ok {
			return nil, fmt.Errorf("shard %s: no column %q", p.ID(), p.RHS)
		}
		m := ruleMeta{li: li}
		for _, row := range p.Tableau.Rows() {
			if row.Variable() {
				m.vars = append(m.vars, row.LHS)
			}
		}
		tr.meta = append(tr.meta, m)
	}
	tr.rows = make([]rowPlace, t.NumRows())
	// One slab backs the initial placement entries: most rows host on
	// exactly one shard (their home), and per-row slices would cost an
	// allocation each. Rows that later grow their placement reallocate
	// out of the slab individually; the cap clip below keeps them from
	// clobbering their neighbours when they do.
	slab := make([]localRef, 0, t.NumRows())
	for g := 0; g < t.NumRows(); g++ {
		home := int32(g % k)
		tr.shardBuf = tr.shardsOf(g, home, tr.shardBuf)
		off := len(slab)
		for _, s := range tr.shardBuf {
			slab = append(slab, localRef{shard: s, local: int32(len(tr.globalOf[s]))})
			tr.globalOf[s] = append(tr.globalOf[s], g)
		}
		tr.rows[g] = rowPlace{home: home, locals: slab[off:len(slab):len(slab)]}
	}
	return tr, nil
}

// shardsOf resets dst to the shards global row g must live on given its
// current cell values: the home shard plus the owner of every block key
// any rule's variable tableau rows extract from the row's LHS values,
// deduplicated. Uses the translator's routing scratch.
func (tr *Translator) shardsOf(g int, home int32, dst []int32) []int32 {
	dst = append(dst[:0], home)
	for _, m := range tr.meta {
		lv := tr.t.Cell(g, m.li)
		for _, q := range m.vars {
			tr.keyBuf = q.AppendExtract(tr.keyBuf[:0], lv)
			for _, key := range tr.keyBuf {
				s := int32(Owner(key, tr.k))
				seen := false
				for _, have := range dst {
					if have == s {
						seen = true
						break
					}
				}
				if !seen {
					dst = append(dst, s)
				}
			}
		}
	}
	return dst
}

// Boot renders one shard's current boot state — its routed sub-table
// rows and local→global mapping — from the translator's bookkeeping.
func (tr *Translator) Boot(s int) NodeBoot {
	boot := NodeBoot{
		Name:     tr.t.Name(),
		Columns:  tr.t.Columns(),
		Rows:     make([][]string, len(tr.globalOf[s])),
		GlobalOf: append([]int(nil), tr.globalOf[s]...),
		Shard:    s,
		Of:       tr.k,
	}
	// Render all rows into one backing slab instead of one allocation
	// per row. The boot is freshly built and handed to the node, which
	// may adopt it (see NodeBoot.Rows); nothing else aliases the slab.
	// No translator scratch here: Boot runs concurrently across shards
	// during coordinator bootstrap.
	width := len(boot.Columns)
	cells := make([]string, len(boot.Rows)*width)
	for l, g := range tr.globalOf[s] {
		row := cells[l*width : (l+1)*width : (l+1)*width]
		for c := 0; c < width; c++ {
			row[c] = tr.t.Cell(g, c)
		}
		boot.Rows[l] = row
	}
	return boot
}

// Translate applies one validated global batch to the table and the
// placement bookkeeping, and returns each shard's translated operations
// (ops[s] empty when the batch never touches shard s) plus whether any
// row space renumbered — a global delete or a cross-shard migration —
// which invalidates per-op diffs and forces the coordinator to re-merge.
// A returned error means the bookkeeping is no longer trustworthy; the
// holder must discard the translator.
func (tr *Translator) Translate(batch stream.Batch) ([][]NodeOp, bool, error) {
	ops := make([][]NodeOp, tr.k)
	renumbered := false
	for _, op := range batch {
		var err error
		switch op.Kind {
		case stream.OpAppend:
			err = tr.translateAppend(op.Rows, ops)
		case stream.OpUpdate:
			var moved bool
			moved, err = tr.translateUpdate(op.Row, op.Column, op.Value, ops)
			renumbered = renumbered || moved
		case stream.OpDelete:
			err = tr.translateDelete(op.Drop, ops)
			renumbered = true
		}
		if err != nil {
			return nil, false, err
		}
	}
	return ops, renumbered, nil
}

// translateAppend appends rows to the global table and routes each to its
// home shard plus its block-key owners, batching per shard.
func (tr *Translator) translateAppend(rows [][]string, ops [][]NodeOp) error {
	pend := make([][][]string, tr.k)
	pendG := make([][]int, tr.k)
	for _, r := range rows {
		// Normalize like the single engine does at its ingestion boundary,
		// and route on the normalized values (the ones the shards store).
		rec := make([]string, len(r))
		for i, cell := range r {
			rec[i] = table.NormalizeCell(cell)
		}
		g := tr.t.NumRows()
		if err := tr.t.Append(rec); err != nil {
			return err
		}
		place := rowPlace{home: int32(g % tr.k)}
		tr.shardBuf = tr.shardsOf(g, place.home, tr.shardBuf)
		for _, s32 := range tr.shardBuf {
			s := int(s32)
			place.locals = append(place.locals, localRef{shard: s32, local: int32(len(tr.globalOf[s]))})
			tr.globalOf[s] = append(tr.globalOf[s], g)
			pend[s] = append(pend[s], rec)
			pendG[s] = append(pendG[s], g)
		}
		tr.rows = append(tr.rows, place)
	}
	for s := range pend {
		if len(pend[s]) == 0 {
			continue
		}
		op := stream.AppendRows(pend[s]...)
		ops[s] = append(ops[s], NodeOp{Op: &op, Globals: pendG[s]})
	}
	return nil
}

// translateUpdate overwrites one global cell and reconciles the row's
// shard placement: shards it leaves get a local delete, shards it joins
// get an append of the full current row, shards it stays on get the cell
// update. All bookkeeping lands first — the nodes' mappings must reach
// the final numbering before their engines recompute — then at most one
// NodeOp per shard is emitted (the leave/join/stay sets are disjoint).
// Reports whether the row migrated (local row spaces renumbered).
func (tr *Translator) translateUpdate(g int, column, value string, ops [][]NodeOp) (bool, error) {
	ci, _ := tr.t.ColIndex(column) // validated
	value = table.NormalizeCell(value)
	if tr.t.Cell(g, ci) == value {
		return false, nil
	}
	tr.t.SetCell(g, ci, value)
	place := &tr.rows[g]
	tr.shardBuf = tr.shardsOf(g, place.home, tr.shardBuf)
	newSet := tr.shardBuf
	inNew := func(s int32) bool {
		for _, have := range newSet {
			if have == s {
				return true
			}
		}
		return false
	}
	perShard := make(map[int]NodeOp)

	// The leave set: shards hosting the row that the new value routes
	// away from get a local delete addressed at the pre-removal index,
	// and the bookkeeping is rewritten before any engine runs. Each
	// removal drops the current locals entry, so the index does not
	// advance on removal.
	moved := false
	for i := 0; i < len(place.locals); {
		lr := place.locals[i]
		if inNew(lr.shard) {
			i++
			continue
		}
		op := stream.DeleteRows(int(lr.local))
		perShard[int(lr.shard)] = NodeOp{Op: &op}
		tr.removeFromShard(int(lr.shard), int(lr.local))
		moved = true
	}
	// After the removals, place.locals is exactly the stay set: stays
	// get the cell update, new shards get an append of the full row.
	for _, s32 := range newSet {
		s := int(s32)
		if local, ok := place.local(s); ok {
			op := stream.UpdateCell(local, column, value)
			perShard[s] = NodeOp{Op: &op}
			continue
		}
		place.setLocal(s, len(tr.globalOf[s]))
		tr.globalOf[s] = append(tr.globalOf[s], g)
		moved = true
		op := stream.AppendRows(tr.t.Row(g))
		perShard[s] = NodeOp{Op: &op, Globals: []int{g}}
	}
	for s, op := range perShard {
		ops[s] = append(ops[s], op)
	}
	return moved, nil
}

// removeFromShard drops one local row from a shard's bookkeeping:
// rewrites the local→global mirror and every surviving row's local index,
// and deletes the removed row's placement entry. The caller pairs it
// with a DeleteRows node op addressed at the pre-removal local index.
func (tr *Translator) removeFromShard(s, local int) {
	og := tr.globalOf[s]
	tr.rows[og[local]].deleteLocal(s)
	// Rows before the removed index keep their local positions; only the
	// tail shifts down, in place.
	for l := local + 1; l < len(og); l++ {
		g := og[l]
		tr.rows[g].setLocal(s, l-1)
		og[l-1] = g
	}
	tr.globalOf[s] = og[:len(og)-1]
}

// translateDelete removes global rows: every hosting shard deletes its
// local copies, the global space renumbers, and every hosting shard's
// mapping is rewritten to the new numbering — shards that lose no local
// rows still receive a mapping-only renumber directive.
func (tr *Translator) translateDelete(drop []int, ops [][]NodeOp) error {
	dropSet := make(map[int]bool, len(drop))
	for _, g := range drop {
		dropSet[g] = true
	}
	targets := make([]int, 0, len(dropSet))
	for g := range dropSet {
		targets = append(targets, g)
	}
	sort.Ints(targets)

	// Per-shard local targets, captured before any bookkeeping moves.
	perShard := make([][]int, tr.k)
	for _, g := range targets {
		for _, lr := range tr.rows[g].locals {
			perShard[lr.shard] = append(perShard[lr.shard], int(lr.local))
		}
	}
	remap := stream.RemapFor(targets)

	// Rewrite every shard's mirror: drop deleted rows, shift surviving
	// locals down, renumber the global values — the same transformation
	// the NodeOp directive instructs each node to perform.
	for s := range tr.globalOf {
		ng := make([]int, 0, len(tr.globalOf[s]))
		for _, g := range tr.globalOf[s] {
			if dropSet[g] {
				tr.rows[g].deleteLocal(s)
				continue
			}
			tr.rows[g].setLocal(s, len(ng))
			nr, _ := remap(g)
			ng = append(ng, nr)
		}
		tr.globalOf[s] = ng
	}
	newRows := make([]rowPlace, 0, len(tr.rows)-len(targets))
	for g := range tr.rows {
		if !dropSet[g] {
			newRows = append(newRows, tr.rows[g])
		}
	}
	tr.rows = newRows
	if _, err := tr.t.DeleteRows(targets...); err != nil {
		return err
	}

	for s := 0; s < tr.k; s++ {
		if len(perShard[s]) > 0 {
			sort.Ints(perShard[s])
			op := stream.DeleteRows(perShard[s]...)
			ops[s] = append(ops[s], NodeOp{Op: &op, Renumber: targets})
		} else if len(tr.globalOf[s]) > 0 {
			ops[s] = append(ops[s], NodeOp{Renumber: targets})
		}
	}
	return nil
}

// RecoverFunc replaces a shard node that stopped responding: it receives
// the shard index, the shard's current boot state (rendered from the
// translator, i.e. already reflecting the in-flight batch), and the
// sequence number the batch advances the coordinator to. Returning a
// fresh Node resumes the batch; returning an error poisons the
// coordinator.
type RecoverFunc func(s int, boot NodeBoot, seq int64) (Node, error)

// Config tunes NewWith. The zero value builds in-process LocalNodes at
// sequence 0, with no failover and no journal of its own.
type Config struct {
	// BaseSeq is the starting sequence number (see stream.NewEngineFrom
	// for the cursor-continuity contract).
	BaseSeq int64
	// Parallelism, when positive, bounds the workers the K node boots run
	// on together: at most that many nodes boot at once, and an in-process
	// node boots on its share of them. 0 boots every node at once, each
	// in-process one on GOMAXPROCS workers.
	Parallelism int
	// NewNode overrides shard node construction — internal/cluster
	// supplies remote workers here. nil builds in-process LocalNodes.
	NewNode func(s int, boot NodeBoot, rules []*pfd.PFD) (Node, error)
	// Recover, when set, is invoked when a node fails mid-batch (after
	// the transport's own retries); see RecoverFunc. nil poisons the
	// coordinator on the first node failure.
	Recover RecoverFunc
	// Journal, when set, receives every batch after validation and the
	// write-ahead sink, before translation: the coordinator's own failover
	// journal, distinct from the session-durability sink (SetSink).
	Journal func(ctx context.Context, seq int64, batch stream.Batch) error
}

// Coordinator fans one table's delta stream out over K shard nodes and
// maintains the merged global violation set. It embeds the same
// stream.Sequencer as stream.Engine, so it has the same
// incremental-detection surface (ApplyCtx/Violations/Since/Seq/Stale/
// SetSink), and supplies the step that applies a batch. It is safe for
// concurrent use; batches serialize on the sequencer's lock.
type Coordinator struct {
	*stream.Sequencer

	tr      *Translator
	nodes   []Node
	recover RecoverFunc
	journal func(ctx context.Context, seq int64, batch stream.Batch) error
	// vio is the merged global violation set after the last applied batch,
	// keyed by Violation.Key() and holding one reference per shard that
	// reports the violation (a pair whose ambiguous extraction spans keys
	// owned by two shards is reported by both), so batches that renumber
	// nothing fold the shards' own diffs into it instead of re-merging
	// every shard's full set.
	vio *stream.Set[string]
}

// NewWith builds a coordinator with K shards over the table's current
// contents; the zero Config gives in-process shards at sequence 0. The
// shards bootstrap their engines in parallel, each over its own
// sub-table.
func NewWith(t *table.Table, rules []*pfd.PFD, k int, cfg Config) (*Coordinator, error) {
	tr, err := NewTranslator(t, rules, k)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		tr:      tr,
		recover: cfg.Recover,
		journal: cfg.Journal,
		vio:     stream.NewSet[string](),
	}
	gate, nodePar := k, 0 // nodes booting at once; an in-process node's workers
	if p := cfg.Parallelism; p > 0 {
		gate, nodePar = min(k, p), max(1, p/k)
	}
	newNode := cfg.NewNode
	if newNode == nil {
		newNode = func(s int, boot NodeBoot, rules []*pfd.PFD) (Node, error) {
			return newLocalNode(boot, rules, nodePar)
		}
	}

	// Bootstrap the shard nodes concurrently: this is the full detection
	// pass, split K ways.
	c.nodes = make([]Node, k)
	errs := make([]error, k)
	slots := make(chan struct{}, gate)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			node, err := newNode(s, tr.Boot(s), rules)
			if err != nil {
				errs[s] = err
				return
			}
			c.nodes[s] = node
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, n := range c.nodes {
				if n != nil {
					_ = n.Close()
				}
			}
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	lists, err := c.mergeNodes(cfg.BaseSeq)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	c.vio.Replace(pfd.Violation.Key, lists...)
	// The diff from nothing adds the whole merged set, sorted: the log's base.
	c.Sequencer = stream.NewSequencer(t, cfg.BaseSeq, 0, c.vio.Diff(cfg.BaseSeq, t.NumRows()).Added, c.apply)
	return c, nil
}

// Close releases every node's resources (the coordinator itself holds
// none).
func (c *Coordinator) Close() error {
	var first error
	c.Locked(func(int64) {
		for _, n := range c.nodes {
			if err := n.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}

// apply is the coordinator's Step: cluster journal → translate → fan
// out → fail over dead nodes → fold the shards' diffs, or re-merge every
// shard when row spaces moved. Any error leaves the per-shard state
// untrusted; the sequencer poisons the coordinator.
func (c *Coordinator) apply(ctx context.Context, seq int64, batch stream.Batch) (*stream.Diff, error) {
	if c.journal != nil {
		if err := c.journal(ctx, seq, batch); err != nil {
			return nil, fmt.Errorf("shard: cluster journal batch %d: %w", seq, err)
		}
	}
	ops, renumbered, err := c.tr.Translate(batch)
	if err != nil {
		// Translated per-shard operations are constructed valid; a failure
		// means the bookkeeping diverged and cannot be trusted.
		return nil, fmt.Errorf("shard: %w", err)
	}

	// Fan the translated batches out concurrently — the shards' engines
	// are independent, and the bookkeeping is already in place.
	fanCtx, endFanout := obs.StartSpan(ctx, "shard.fanout")
	obs.SetSpanAttrs(fanCtx, "seq", strconv.FormatInt(seq, 10), "shards", strconv.Itoa(c.tr.k))
	var (
		wg      sync.WaitGroup
		resMu   sync.Mutex
		results = make([][]*stream.Diff, c.tr.k) // per shard: its globalized per-op diffs
		failed  []int
		errsBy  = make([]error, c.tr.k)
	)
	for s := 0; s < c.tr.k; s++ {
		if len(ops[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			shardLbl := strconv.Itoa(s)
			nodeCtx, endNode := obs.StartSpan(fanCtx, "shard.node.apply")
			obs.SetSpanAttrs(nodeCtx, "shard", shardLbl, "seq", strconv.FormatInt(seq, 10))
			t0 := time.Now()
			diffs, err := c.nodes[s].Apply(nodeCtx, NodeBatch{Seq: seq, Ops: ops[s], Diffs: !renumbered})
			endNode(err)
			nodeApplyDur.WithLabelValues(shardLbl).Observe(time.Since(t0).Seconds())
			resMu.Lock()
			defer resMu.Unlock()
			if err != nil {
				nodeBatches.WithLabelValues(shardLbl, "error").Inc()
				failed = append(failed, s)
				errsBy[s] = err
				return
			}
			nodeBatches.WithLabelValues(shardLbl, "ok").Inc()
			results[s] = diffs
		}(s)
	}
	wg.Wait()
	if len(failed) > 0 {
		endFanout(errsBy[failed[0]])
	} else {
		endFanout(nil)
	}

	// Failover: replace dead nodes and re-merge. The replacement boots
	// from the shard's post-batch state (the translator already reflects
	// the whole batch), so its engine bootstrap lands exactly where a
	// surviving node's incremental application would have.
	if len(failed) > 0 {
		if c.recover == nil {
			return nil, fmt.Errorf("shard %d: %w", failed[0], errsBy[failed[0]])
		}
		sort.Ints(failed)
		for _, s := range failed {
			node, rerr := c.recover(s, c.tr.Boot(s), seq)
			if rerr != nil {
				return nil, fmt.Errorf("shard %d: %v; recovery failed: %w", s, errsBy[s], rerr)
			}
			_ = c.nodes[s].Close()
			c.nodes[s] = node
			failovers.WithLabelValues(strconv.Itoa(s)).Inc()
		}
		renumbered = true // per-op diffs are incomplete; re-merge from the nodes
	}

	if renumbered {
		// Row spaces moved (delete or cross-shard migration) or a node
		// failed over: the per-op diffs mix pre- and post-renumbering
		// coordinates (or are missing), so rebuild the merged set from the
		// nodes' current state.
		lists, merr := c.mergeNodes(seq)
		if merr != nil {
			return nil, fmt.Errorf("shard: re-merge: %w", merr)
		}
		c.vio.Replace(pfd.Violation.Key, lists...)
	} else {
		// Nothing renumbered, so every diff's global coordinates are final:
		// fold the per-shard diffs the nodes already computed, keeping each
		// batch proportional to what it touched, not to the whole set.
		for _, diffs := range results {
			for _, d := range diffs {
				for _, gv := range d.Removed {
					c.vio.Unref(gv.Key())
				}
				for _, gv := range d.Added {
					c.vio.Ref(gv.Key(), gv)
				}
			}
		}
	}
	coordBatches.Inc()
	return c.vio.Diff(seq, c.tr.t.NumRows()), nil
}

// mergeNodes collects every node's globalized violations at seq
// concurrently, one list per shard (a pair reported by two shards renders
// the same on both, because both see the same global cells). A node that
// fails the read is recovered once (when a recovery hook is set) and
// re-read.
func (c *Coordinator) mergeNodes(seq int64) ([][]pfd.Violation, error) {
	lists := make([][]pfd.Violation, c.tr.k)
	errs := make([]error, c.tr.k)
	var wg sync.WaitGroup
	for s := 0; s < c.tr.k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lists[s], errs[s] = c.nodes[s].Violations()
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err == nil {
			continue
		}
		if c.recover == nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		node, rerr := c.recover(s, c.tr.Boot(s), seq)
		if rerr != nil {
			return nil, fmt.Errorf("shard %d: %v; recovery failed: %w", s, err, rerr)
		}
		_ = c.nodes[s].Close()
		c.nodes[s] = node
		if lists[s], err = node.Violations(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return lists, nil
}

// ShardStat is one shard's slice of the coordinator's state.
type ShardStat struct {
	Shard int `json:"shard"`
	NodeStats
	// Error reports a node whose stats read failed (an unreachable or a
	// poisoned worker); NodeStats is zero then.
	Error string `json:"error,omitempty"`
}

// Stats summarizes the coordinator's maintained state: the merged global
// picture plus one entry per shard, so operators can see hot-shard
// imbalance under skewed block-key distributions.
type Stats struct {
	Shards     int   `json:"shards"`
	Seq        int64 `json:"seq"`
	Rows       int   `json:"rows"`
	Violations int   `json:"violations"`
	// Replication is the total of per-shard rows over global rows (1.0 =
	// no row lives on more than one shard).
	Replication float64     `json:"replication"`
	PerShard    []ShardStat `json:"per_shard"`
}

// Stats returns a snapshot of the coordinator's maintained state.
func (c *Coordinator) Stats() Stats {
	var st Stats
	c.Locked(func(seq int64) {
		st = Stats{
			Shards:     c.tr.k,
			Seq:        seq,
			Rows:       c.tr.t.NumRows(),
			Violations: c.vio.Len(),
		}
		local := 0
		for s, node := range c.nodes {
			ns, err := node.Stats()
			if err != nil {
				st.PerShard = append(st.PerShard, ShardStat{Shard: s, Error: err.Error()})
				continue
			}
			local += ns.Rows
			st.PerShard = append(st.PerShard, ShardStat{Shard: s, NodeStats: ns})
		}
		if st.Rows > 0 {
			st.Replication = float64(local) / float64(st.Rows)
		}
	})
	return st
}
