// Sharded shows scale-out incremental detection: the same phone→state
// registry as examples/deltas, but the session's table is
// hash-partitioned on the rule set's block keys across four independent
// shard engines. Detection, delta ingestion, and repairs all route
// through the sharded coordinator — and every result is byte-identical
// to what a single engine (or a full re-detect) produces, which this
// example verifies explicitly. A skewed key distribution demonstrates
// the hot-shard imbalance the per-shard stats surface.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	anmat "github.com/anmat/anmat"
	"github.com/anmat/anmat/internal/datagen"
)

func main() {
	ctx := context.Background()

	// A Zipf-skewed registry: a few area codes — the variable rule's
	// block keys — dominate, so one shard will run hot.
	d := datagen.PhoneStateSkewed(4000, 0.01, 7, 1.4)
	sys, err := anmat.New(anmat.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	sess := sys.NewSession("registry", d.Table, anmat.DefaultParams())
	if err := sess.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s), %d shards\n",
		d.Table.NumRows(), len(sess.Discovered), len(sess.Violations), sess.Shards())

	// Traffic flows through the sharded coordinator exactly like through
	// the single engine: appends route to the owning shards, an update
	// that changes a row's area code migrates the row across shards.
	dirty := d.Table.Row(0)
	dirty[1] = "ZZ"
	diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{
		anmat.AppendRows(dirty),
		anmat.UpdateCell(1, "phone", "2125550000"), // key move: 850… → 212…
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch seq %d: +%d -%d violation(s)\n", diff.Seq, len(diff.Added), len(diff.Removed))

	// The tentpole invariant, checked live: the merged sharded set is
	// byte-identical to a fresh full detection over the current table.
	eng, err := sess.Stream()
	if err != nil {
		log.Fatal(err)
	}
	res, err := anmat.DetectContext(ctx, sess.Table, sess.Confirmed, 4)
	if err != nil {
		log.Fatal(err)
	}
	sharded, _ := json.Marshal(eng.Violations())
	full, _ := json.Marshal(res.Violations)
	if string(sharded) != string(full) {
		log.Fatal("sharded detection diverged from full detection")
	}
	fmt.Printf("exactness: %d sharded violation(s) byte-identical to full detection\n", len(res.Violations))

	// Per-shard observability: the skew shows up as a hot shard; the
	// replication factor counts rows hosted on more than one shard
	// (home shard + block-key owners).
	st := sess.EngineStats()
	if st.Sharded != nil {
		fmt.Printf("replication %.2fx across %d shards:\n", st.Sharded.Replication, st.Sharded.Shards)
		for _, ps := range st.Sharded.PerShard {
			fmt.Printf("  shard %d: %d row(s), %d violation(s), %d block(s)\n",
				ps.Shard, ps.Rows, ps.Engine.Violations, ps.Engine.Blocks)
		}
	}

	// Repairs route through the coordinator too — as cell deltas, so the
	// violation diff of the fix falls out without a re-detection.
	repairs, err := sess.RunRepairs(ctx)
	if err != nil {
		log.Fatal(err)
	}
	n, rdiff, err := sess.ApplyRepairs(ctx, repairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repairs: %d cell(s) fixed, %d violation(s) remain (seq %d)\n",
		n, len(sess.Violations), rdiff.Seq)
}
