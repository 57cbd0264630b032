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
// Since PR 6 the coordinator is split in two phases so shards can live
// behind a network (internal/cluster):
//
//   - the Translator turns each global delta batch into per-shard
//     NodeOps — engine operations plus the local→global mapping
//     directives that keep every shard's row numbering in lockstep with
//     the global table (appends route by key and home, updates migrate a
//     row between shards when its block keys move, deletes renumber both
//     the global and the per-shard row spaces);
//   - the translated batches fan out concurrently over the Node
//     interface (in-process LocalNodes here, HTTP workers in
//     internal/cluster), and the globalized per-shard results merge —
//     deduplicated and sorted in the detection engine's total order —
//     into a set byte-identical to a fresh detect.DetectAllContext over
//     the global table at any K and any parallelism, which the
//     replay-equivalence property tests assert over randomized delta
//     scripts for K ∈ {1,2,4,8}.
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

	"github.com/anmat/anmat/internal/detect"
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

// Shards returns the shard count K.
func (tr *Translator) Shards() int { return tr.k }

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

// Config tunes NewWith. The zero value reproduces NewFrom at sequence 0.
type Config struct {
	// BaseSeq is the starting sequence number (see stream.NewEngineFrom
	// for the cursor-continuity contract).
	BaseSeq int64
	// NewNode overrides shard node construction — internal/cluster
	// supplies remote workers here. nil builds in-process LocalNodes.
	NewNode func(s int, boot NodeBoot, rules []*pfd.PFD) (Node, error)
	// Recover, when set, is invoked when a node fails mid-batch (after
	// the transport's own retries); see RecoverFunc. nil poisons the
	// coordinator on the first node failure.
	Recover RecoverFunc
	// Journal, when set, receives every batch — Apply and Replay alike —
	// after validation (and after the write-ahead sink on Apply), before
	// translation. It is the coordinator's own failover journal, distinct
	// from the session-durability sink installed via SetSink.
	Journal func(ctx context.Context, seq int64, batch stream.Batch) error
}

// Coordinator fans one table's delta stream out over K shard nodes and
// maintains the merged global violation set. It implements the same
// incremental-detection surface as stream.Engine (Apply/Replay/
// Violations/Since/Seq/Stale/SetSink) and is safe for concurrent use;
// batches serialize on an internal lock.
type Coordinator struct {
	mu      sync.Mutex
	t       *table.Table
	rules   []*pfd.PFD
	tr      *Translator
	k       int
	nodes   []Node
	version int64 // global table version after our last own mutation
	// broken marks a coordinator whose translated per-shard operation
	// failed mid-batch without a recovery path: the per-shard state can
	// no longer be trusted, so further batches are refused and Stale()
	// reports true until the holder rebuilds.
	broken  bool
	recover RecoverFunc
	journal func(ctx context.Context, seq int64, batch stream.Batch) error

	seq int64
	// vio is the merged, deduplicated global violation set after the last
	// applied batch (key → globally-renumbered rendering); owners counts
	// how many shards currently report each key (a pair whose ambiguous
	// extraction spans keys owned by two shards is reported by both), so
	// batches that renumber nothing can fold the shards' own diffs
	// incrementally instead of re-merging every shard's full set.
	vio    map[string]pfd.Violation
	owners map[string]int
	log    *stream.DiffLog
	sink   func(ctx context.Context, seq int64, batch stream.Batch) error
}

// NewFrom builds a coordinator with K in-process shards over the table's
// current contents, starting at sequence number baseSeq (see
// stream.NewEngineFrom for the cursor-continuity contract). Like a
// single engine's, the bootstrap costs about one full detection pass —
// but split across the shards, which bootstrap their engines in parallel.
func NewFrom(t *table.Table, rules []*pfd.PFD, k int, baseSeq int64) (*Coordinator, error) {
	return NewWith(t, rules, k, Config{BaseSeq: baseSeq})
}

// NewWith is NewFrom with the full configuration: custom node transports,
// failover recovery, and the coordinator's own journal hook.
func NewWith(t *table.Table, rules []*pfd.PFD, k int, cfg Config) (*Coordinator, error) {
	tr, err := NewTranslator(t, rules, k)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		t:       t,
		rules:   rules,
		tr:      tr,
		k:       k,
		seq:     cfg.BaseSeq,
		recover: cfg.Recover,
		journal: cfg.Journal,
	}
	newNode := cfg.NewNode
	if newNode == nil {
		newNode = func(s int, boot NodeBoot, rules []*pfd.PFD) (Node, error) {
			return NewLocalNode(boot, rules)
		}
	}

	// Bootstrap the shard nodes concurrently: this is the full detection
	// pass, split K ways.
	c.nodes = make([]Node, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
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
	vio, owners, err := c.mergeNodes()
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	c.vio, c.owners = vio, owners
	// The diff from nothing adds the whole merged set, sorted: the log's base.
	c.log = stream.NewDiffLog(0, diffSets(nil, vio, c.seq, t.NumRows()).Added)
	c.version = t.Version()
	return c, nil
}

// Shards returns the shard count K.
func (c *Coordinator) Shards() int { return c.k }

// Rules returns the coordinator's rule set (shared slice; do not mutate).
func (c *Coordinator) Rules() []*pfd.PFD { return c.rules }

// Translator exposes the coordinator's routing bookkeeping (the cluster
// layer boots replacement workers from it).
func (c *Coordinator) Translator() *Translator { return c.tr }

// Node returns shard s's current node.
func (c *Coordinator) Node(s int) Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[s]
}

// Close releases every node's resources (the coordinator itself holds
// none).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Seq returns the sequence number of the last applied batch.
func (c *Coordinator) Seq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Stale reports whether the global table was mutated outside the
// coordinator since its last batch (or a translated shard operation
// failed, poisoning the per-shard state). A stale coordinator refuses
// further deltas; rebuild it.
func (c *Coordinator) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken || c.t.Version() != c.version
}

// SetSink installs the write-ahead journal hook, called with the global
// batch and the sequence number it is about to receive — after
// validation, before any shard is touched. A sink error aborts the batch
// with nothing applied anywhere. Replay bypasses it. Pass nil to detach.
func (c *Coordinator) SetSink(fn func(ctx context.Context, seq int64, batch stream.Batch) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = fn
}

// Violations returns the merged global violation set — byte-identical to
// a fresh full detection over the current global table. Like
// stream.Engine.Violations it is the diff log's shared snapshot: the
// caller must not modify it, and no later batch will.
func (c *Coordinator) Violations() []pfd.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Snapshot()
}

// Since merges the retained per-batch diffs after the cursor into one net
// global diff, with the same semantics as stream.Engine.Since.
func (c *Coordinator) Since(seq int64) (*stream.Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Merge(seq, c.seq, c.t.NumRows())
}

// Apply validates the batch against the global table, journals it through
// the sink (when one is set), fans it out to the owning shards, and
// returns the merged global violation diff. On a validation or journaling
// error nothing is applied.
func (c *Coordinator) Apply(batch stream.Batch) (*stream.Diff, error) {
	return c.apply(context.Background(), batch, true)
}

// ApplyCtx is Apply carrying the caller's context: the fan-out and
// per-shard apply spans (and, for remote nodes, the RPC spans) join the
// context's active trace.
func (c *Coordinator) ApplyCtx(ctx context.Context, batch stream.Batch) (*stream.Diff, error) {
	return c.apply(ctx, batch, true)
}

// Replay is Apply without the session-durability sink — the recovery
// path, replaying batches read back from the write-ahead log. The
// coordinator's own Journal hook still runs: replayed batches are part of
// its failover timeline.
func (c *Coordinator) Replay(batch stream.Batch) (*stream.Diff, error) {
	return c.apply(context.Background(), batch, false)
}

// shardDiffs is one shard's globalized per-op diffs for one batch.
type shardDiffs struct {
	shard int
	diffs []*stream.Diff
}

func (c *Coordinator) apply(ctx context.Context, batch stream.Batch, journal bool) (*stream.Diff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, fmt.Errorf("shard: coordinator poisoned by an earlier shard failure; rebuild it")
	}
	if c.t.Version() != c.version {
		return nil, fmt.Errorf("shard: table mutated outside the coordinator (version %d, coordinator at %d); rebuild it", c.t.Version(), c.version)
	}
	if err := stream.ValidateBatch(c.t, batch); err != nil {
		return nil, fmt.Errorf("shard: invalid batch: %w", err)
	}
	seq := c.seq + 1
	if journal && c.sink != nil {
		if err := c.sink(ctx, seq, batch); err != nil {
			return nil, fmt.Errorf("shard: journal batch %d: %w", seq, err)
		}
	}
	if c.journal != nil {
		if err := c.journal(ctx, seq, batch); err != nil {
			return nil, fmt.Errorf("shard: cluster journal batch %d: %w", seq, err)
		}
	}

	ops, renumbered, err := c.tr.Translate(batch)
	if err != nil {
		// Translated per-shard operations are constructed valid; a failure
		// means the bookkeeping diverged and cannot be trusted. Poison the
		// coordinator so the holder rebuilds.
		c.broken = true
		return nil, fmt.Errorf("shard: %w (coordinator state inconsistent; rebuild it)", err)
	}

	// Fan the translated batches out concurrently — the shards' engines
	// are independent, and the bookkeeping is already in place.
	fanCtx, endFanout := obs.StartSpan(ctx, "shard.fanout")
	obs.SetSpanAttrs(fanCtx, "seq", strconv.FormatInt(seq, 10), "shards", strconv.Itoa(c.k))
	var (
		wg      sync.WaitGroup
		resMu   sync.Mutex
		results []shardDiffs
		failed  []int
		errsBy  = make([]error, c.k)
	)
	for s := 0; s < c.k; s++ {
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
			results = append(results, shardDiffs{s, diffs})
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
			c.broken = true
			return nil, fmt.Errorf("shard %d: %w (coordinator state inconsistent; rebuild it)", failed[0], errsBy[failed[0]])
		}
		sort.Ints(failed)
		for _, s := range failed {
			node, rerr := c.recover(s, c.tr.Boot(s), seq)
			if rerr != nil {
				c.broken = true
				return nil, fmt.Errorf("shard %d: %v; recovery failed: %w (coordinator state inconsistent; rebuild it)", s, errsBy[s], rerr)
			}
			_ = c.nodes[s].Close()
			c.nodes[s] = node
			failovers.WithLabelValues(strconv.Itoa(s)).Inc()
		}
		renumbered = true // per-op diffs are incomplete; re-merge from the nodes
	}

	c.version = c.t.Version()
	c.seq = seq
	var diff *stream.Diff
	if renumbered {
		// Row spaces moved (delete or cross-shard migration) or a node
		// failed over: the per-op diffs mix pre- and post-renumbering
		// coordinates (or are missing), so rebuild the merged set from the
		// nodes' current state.
		cur, owners, merr := c.mergeNodes()
		if merr != nil {
			c.broken = true
			return nil, fmt.Errorf("shard: re-merge: %w (coordinator state inconsistent; rebuild it)", merr)
		}
		diff = diffSets(c.vio, cur, c.seq, c.t.NumRows())
		c.vio, c.owners = cur, owners
	} else {
		// Nothing renumbered: fold the per-shard diffs the nodes already
		// computed, keeping each batch proportional to what it touched
		// instead of O(total violations).
		sort.Slice(results, func(i, j int) bool { return results[i].shard < results[j].shard })
		diff = c.fold(results)
	}
	c.log.Append(diff)
	coordBatches.Inc()
	return diff, nil
}

// fold applies the shards' own per-op diffs to the merged set with owner
// counting: a violation disappears globally only when its last reporting
// shard drops it. Valid only when no row space renumbered this batch, so
// every diff's global coordinates are final (appends only ever extend
// the mappings).
func (c *Coordinator) fold(results []shardDiffs) *stream.Diff {
	prior := make(map[string]*pfd.Violation)
	touch := func(k string) {
		if _, done := prior[k]; done {
			return
		}
		if v, ok := c.vio[k]; ok {
			vv := v
			prior[k] = &vv
		} else {
			prior[k] = nil
		}
	}
	for _, sd := range results {
		for _, d := range sd.diffs {
			for _, gv := range d.Removed {
				k := gv.Key()
				touch(k)
				if c.owners[k]--; c.owners[k] <= 0 {
					delete(c.owners, k)
					delete(c.vio, k)
				}
			}
			for _, gv := range d.Added {
				k := gv.Key()
				touch(k)
				c.owners[k]++
				c.vio[k] = gv
			}
		}
	}
	out := &stream.Diff{Seq: c.seq, Rows: c.t.NumRows()}
	for k, pv := range prior {
		cur, ok := c.vio[k]
		switch {
		case pv == nil && ok:
			out.Added = append(out.Added, cur)
		case pv != nil && !ok:
			out.Removed = append(out.Removed, *pv)
		case pv != nil && ok && !stream.SameRendering(*pv, cur):
			out.Removed = append(out.Removed, *pv)
			out.Added = append(out.Added, cur)
		}
	}
	detect.SortViolations(out.Added)
	detect.SortViolations(out.Removed)
	return out
}

// mergeNodes collects every node's globalized violations concurrently and
// deduplicates by violation key, counting per key how many shards report
// it (a pair whose ambiguous extraction spans keys owned by two shards is
// reported by both; the renderings agree because both shards see the same
// global cells). A node that fails the read is recovered once (when a
// recovery hook is set) and re-read.
func (c *Coordinator) mergeNodes() (map[string]pfd.Violation, map[string]int, error) {
	lists := make([][]pfd.Violation, c.k)
	errs := make([]error, c.k)
	var wg sync.WaitGroup
	for s := 0; s < c.k; s++ {
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
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		node, rerr := c.recover(s, c.tr.Boot(s), c.seq)
		if rerr != nil {
			return nil, nil, fmt.Errorf("shard %d: %v; recovery failed: %w", s, err, rerr)
		}
		_ = c.nodes[s].Close()
		c.nodes[s] = node
		if lists[s], err = node.Violations(); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	out := make(map[string]pfd.Violation, len(c.vio))
	owners := make(map[string]int, len(c.vio))
	for _, list := range lists {
		for _, gv := range list {
			k := gv.Key()
			out[k] = gv
			owners[k]++
		}
	}
	return out, owners, nil
}

// diffSets renders the net change between two merged violation maps in
// the engines' violation order.
func diffSets(prev, cur map[string]pfd.Violation, seq int64, rows int) *stream.Diff {
	d := &stream.Diff{Seq: seq, Rows: rows}
	for k, pv := range prev {
		cv, ok := cur[k]
		switch {
		case !ok:
			d.Removed = append(d.Removed, pv)
		case !stream.SameRendering(pv, cv):
			d.Removed = append(d.Removed, pv)
			d.Added = append(d.Added, cv)
		}
	}
	for k, cv := range cur {
		if _, ok := prev[k]; !ok {
			d.Added = append(d.Added, cv)
		}
	}
	detect.SortViolations(d.Added)
	detect.SortViolations(d.Removed)
	return d
}

// ShardStat is one shard's slice of the coordinator's state.
type ShardStat struct {
	Shard int `json:"shard"`
	// Rows is the shard's local row count — home rows plus replicas
	// hosted for the block keys it owns.
	Rows int `json:"rows"`
	// Engine is the shard engine's own maintained-state summary. Its
	// violation count is pre-merge (local, before global deduplication).
	Engine stream.Stats `json:"engine"`
	// Error reports a node whose stats read failed (an unreachable
	// worker); Rows/Engine are zero then.
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
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Shards:     c.k,
		Seq:        c.seq,
		Rows:       c.t.NumRows(),
		Violations: len(c.vio),
	}
	local := 0
	for s, node := range c.nodes {
		ns, err := node.Stats()
		if err != nil {
			st.PerShard = append(st.PerShard, ShardStat{Shard: s, Error: err.Error()})
			continue
		}
		local += ns.Rows
		st.PerShard = append(st.PerShard, ShardStat{Shard: s, Rows: ns.Rows, Engine: ns.Engine})
	}
	if st.Rows > 0 {
		st.Replication = float64(local) / float64(st.Rows)
	}
	return st
}
