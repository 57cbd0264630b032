// The shard node surface: one shard of a partitioned table, addressed by
// the coordinator through translated per-shard operations. A Node hides
// where the shard's engine runs — LocalNode holds it in-process, and
// internal/cluster implements the same interface over a worker speaking
// the /shard/v1 HTTP API — so the coordinator's routing, merge, and
// failover logic is transport-agnostic.
//
// The local→global row mapping is owned by the node (the engine's
// GlobalID hook reads it during recomputation), with the coordinator's
// Translator keeping a mirror: every translated operation carries the
// mapping directive (Globals for appends, Renumber for global deletes,
// the drop itself for local evictions) that keeps the two in lockstep.
// Everything a node returns — violation sets, per-op diffs — is already
// renumbered into global row space and re-canonicalized, so the
// coordinator merges shard results without knowing their local layouts.
package shard

import (
	"context"
	"fmt"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// NodeOp is one translated per-shard operation: an optional engine op
// plus the local→global mapping directive that must land before the
// engine sees it. A NodeOp with a nil Op is mapping-only — a global
// delete renumbers the mapping of every hosting shard, including shards
// that lose no local rows.
type NodeOp struct {
	Op *stream.Op `json:"op,omitempty"`
	// Globals are the global row indices of the rows an append op adds,
	// in op order; the node extends its mapping with them before the
	// engine evaluates the new rows.
	Globals []int `json:"globals,omitempty"`
	// Renumber, when set, is the sorted list of global row indices the
	// global table deleted in this operation; the node drops the op's
	// local targets from its mapping and remaps every surviving entry
	// through the induced old→new renumbering. A local-only eviction (a
	// row migrating off the shard) carries a delete Op with no Renumber.
	Renumber []int `json:"renumber,omitempty"`
}

// NodeBatch is everything one shard must do for one coordinator batch,
// tagged with the global sequence number the batch advances the
// coordinator to. Networked nodes use Seq for idempotency: a retried
// delivery of an already-applied batch returns the cached result instead
// of applying twice.
type NodeBatch struct {
	Seq int64    `json:"seq"`
	Ops []NodeOp `json:"ops"`
	// Diffs asks the node to return its globalized per-op diffs so the
	// coordinator can fold them incrementally. The coordinator leaves it
	// unset on batches that renumber any row space — per-op diffs then mix
	// pre- and post-renumbering coordinates (a delete's removed violations
	// reference rows the mapping no longer covers), and the coordinator
	// re-merges from the nodes' full sets instead.
	Diffs bool `json:"diffs,omitempty"`
}

// NodeBoot is the state a shard node bootstraps from: its sub-table (the
// rows routed to it) and the local→global mapping, plus its position in
// the shard topology (Shard of Of, fixing its KeyFilter). The node
// interns the rows into its sub-table and keeps none of them.
type NodeBoot struct {
	Name     string     `json:"name"`
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	GlobalOf []int      `json:"global_of"`
	Shard    int        `json:"shard"`
	Of       int        `json:"of"`
}

// NodeStats is one shard node's state summary.
type NodeStats struct {
	// Rows is the node's local row count — home rows plus replicas hosted
	// for the block keys it owns.
	Rows int `json:"rows"`
	// Engine is the shard engine's own maintained-state summary. Its
	// violation count is pre-merge (local, before global deduplication).
	Engine stream.Stats `json:"engine"`
	// BatchesApplied and Redeliveries are a worker's counts since its
	// shard state was booted: batches its engine applied, and redelivered
	// ones it answered from its idempotency cache. An in-process node
	// leaves them zero.
	BatchesApplied int64 `json:"batches_applied,omitempty"`
	Redeliveries   int64 `json:"redeliveries,omitempty"`
}

// Node is one shard as the coordinator sees it. Implementations must
// return violations and diffs in global row coordinates (see globalize).
// A Node is driven by a single coordinator and needs no internal
// synchronization beyond what its transport requires.
type Node interface {
	// Apply executes the batch's operations in order and returns one
	// globalized diff per engine op (mapping-only NodeOps yield none).
	// The context carries the coordinator's active trace span, so a
	// remote implementation propagates it over the wire.
	Apply(context.Context, NodeBatch) ([]*stream.Diff, error)
	// Violations returns the node's maintained violation set, globalized.
	Violations() ([]pfd.Violation, error)
	// Stats summarizes the node's state.
	Stats() (NodeStats, error)
	// Close releases the node's resources (network handles, if any).
	Close() error
}

// LocalNode is the in-process Node: a sub-table plus a stream.Engine
// filtered to the keys this shard owns, evaluating blocks in global row
// order through the node-owned mapping.
type LocalNode struct {
	t        *table.Table
	eng      *stream.Engine
	globalOf []int
}

// NewLocalNode bootstraps an in-process shard node from its boot state:
// its engine boots from a fresh detector over the sub-table, so the cost
// follows the sub-table's distinct values, on GOMAXPROCS workers.
func NewLocalNode(boot NodeBoot, rules []*pfd.PFD) (*LocalNode, error) {
	return newLocalNode(boot, rules, 0)
}

// newLocalNode is NewLocalNode with the boot's worker bound (see
// stream.Boot).
func newLocalNode(boot NodeBoot, rules []*pfd.PFD, parallelism int) (*LocalNode, error) {
	if len(boot.Rows) != len(boot.GlobalOf) {
		return nil, fmt.Errorf("shard node: %d rows but %d mapping entries", len(boot.Rows), len(boot.GlobalOf))
	}
	t, err := table.FromRows(boot.Name, boot.Columns, boot.Rows)
	if err != nil {
		return nil, fmt.Errorf("shard node: %w", err)
	}
	n := &LocalNode{t: t, globalOf: append([]int(nil), boot.GlobalOf...)}
	shardID, of := boot.Shard, boot.Of
	eng, err := stream.Boot(context.TODO(), detect.New(t, detect.Options{}), rules, parallelism, stream.EngineOptions{
		LogCap:    1, // the coordinator keeps the Since log; shard logs are unused
		KeyFilter: func(key string) bool { return Owner(key, of) == shardID },
		GlobalID:  func(local int) int { return n.globalOf[local] },
	})
	if err != nil {
		return nil, err
	}
	n.eng = eng
	return n, nil
}

// Apply executes the translated operations in order, applying each op's
// mapping directive before its engine op — the engine's GlobalID hook
// must see the mapping the operation leads to while it recomputes.
func (n *LocalNode) Apply(ctx context.Context, nb NodeBatch) ([]*stream.Diff, error) {
	var out []*stream.Diff
	for i, op := range nb.Ops {
		if err := n.applyMapping(op); err != nil {
			return nil, fmt.Errorf("shard node op %d: %w", i, err)
		}
		if op.Op == nil {
			continue
		}
		d, err := n.eng.ApplyCtx(ctx, stream.Batch{*op.Op})
		if err != nil {
			return nil, fmt.Errorf("shard node op %d: %w", i, err)
		}
		if nb.Diffs {
			out = append(out, globalizeDiff(d, n.globalOf))
		}
	}
	return out, nil
}

// applyMapping updates the local→global mapping for one operation.
func (n *LocalNode) applyMapping(op NodeOp) error {
	if op.Op != nil {
		switch op.Op.Kind {
		case stream.OpAppend:
			if len(op.Globals) != len(op.Op.Rows) {
				return fmt.Errorf("append carries %d rows but %d global ids", len(op.Op.Rows), len(op.Globals))
			}
			n.globalOf = append(n.globalOf, op.Globals...)
		case stream.OpDelete:
			if err := n.dropLocals(op.Op.Drop); err != nil {
				return err
			}
		}
	}
	if len(op.Renumber) > 0 {
		remap := stream.RemapFor(op.Renumber)
		for i, g := range n.globalOf {
			ng, ok := remap(g)
			if !ok {
				return fmt.Errorf("global row %d deleted but still mapped locally", g)
			}
			n.globalOf[i] = ng
		}
	}
	return nil
}

// dropLocals removes the given local rows from the mapping, shifting
// survivors down — the same compaction the engine's delete performs on
// the sub-table.
func (n *LocalNode) dropLocals(drop []int) error {
	set := make(map[int]bool, len(drop))
	for _, l := range drop {
		if l < 0 || l >= len(n.globalOf) {
			return fmt.Errorf("local row %d out of range [0,%d)", l, len(n.globalOf))
		}
		set[l] = true
	}
	ng := n.globalOf[:0]
	for l, g := range n.globalOf {
		if !set[l] {
			ng = append(ng, g)
		}
	}
	n.globalOf = ng
	return nil
}

// Violations returns the engine's maintained set renumbered into global
// row space.
func (n *LocalNode) Violations() ([]pfd.Violation, error) {
	local := n.eng.Violations()
	out := make([]pfd.Violation, len(local))
	for i, v := range local {
		out[i] = globalize(v, n.globalOf)
	}
	return out, nil
}

// Stats summarizes the node's sub-table and engine state.
func (n *LocalNode) Stats() (NodeStats, error) {
	return NodeStats{Rows: n.t.NumRows(), Engine: n.eng.Stats()}, nil
}

// Close is a no-op for in-process nodes.
func (n *LocalNode) Close() error { return nil }

// Table exposes the node's sub-table for the worker's health probe and
// white-box tests.
func (n *LocalNode) Table() *table.Table { return n.t }

// globalizeDiff renumbers one shard diff into global row space.
func globalizeDiff(d *stream.Diff, globalOf []int) *stream.Diff {
	out := &stream.Diff{Seq: d.Seq, Rows: d.Rows}
	if len(d.Added) > 0 {
		out.Added = make([]pfd.Violation, len(d.Added))
		for i, v := range d.Added {
			out.Added[i] = globalize(v, globalOf)
		}
	}
	if len(d.Removed) > 0 {
		out.Removed = make([]pfd.Violation, len(d.Removed))
		for i, v := range d.Removed {
			out.Removed[i] = globalize(v, globalOf)
		}
	}
	return out
}

// globalize renumbers one shard-local violation into global row space and
// re-canonicalizes its rendering: cells re-sorted, pair tuples in
// ascending global order with observed/expected oriented to the larger/
// smaller tuple — exactly how whole-table detection renders the same
// violation.
func globalize(v pfd.Violation, globalOf []int) pfd.Violation {
	nv := v
	nv.Cells = make([]table.CellRef, len(v.Cells))
	for i, cell := range v.Cells {
		nv.Cells[i] = table.CellRef{Row: globalOf[cell.Row], Column: cell.Column}
	}
	table.SortCellRefs(nv.Cells)
	nv.Tuples = make([]int, len(v.Tuples))
	for i, tu := range v.Tuples {
		nv.Tuples[i] = globalOf[tu]
	}
	if len(nv.Tuples) == 2 && nv.Tuples[0] > nv.Tuples[1] {
		nv.Tuples[0], nv.Tuples[1] = nv.Tuples[1], nv.Tuples[0]
		nv.Observed, nv.Expected = nv.Expected, nv.Observed
	}
	return nv
}
