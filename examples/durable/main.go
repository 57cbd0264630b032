// Durable walks the snapshot + WAL durability layer end to end: a
// session is checkpointed into a data directory, delta batches journal
// into a per-session write-ahead log, the process "crashes" (all
// in-memory state is abandoned), and a second manager rehydrates the
// session — table, rules, violation set, and the sequence timeline that
// `violations?since=` cursors point into. The example verifies the two
// recovery guarantees explicitly: the restored violation set is
// byte-identical to a fresh full detection over the restored table, and
// a cursor issued before the crash folds exactly onto the restored
// state. This is the library-level flow behind `anmat-server -data` and
// `anmat detect -data`.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/stream"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "anmat-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("data directory: %s\n\n", dir)

	// --- process 1: load, detect, checkpoint, stream deltas ---
	pm, err := persist.Open(dir, persist.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sys := core.NewSystem(docstore.NewMem())
	d := datagen.PhoneState(2000, 0.01, 7)
	sess := sys.NewSession("registry", d.Table, core.DefaultParams())
	if err := sess.Run(ctx); err != nil {
		log.Fatal(err)
	}
	sess.SetPersist(pm) // from here on the session is durable
	if err := sess.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s) — checkpointed\n",
		sess.Table.NumRows(), len(sess.Discovered), len(sess.Violations))

	// Traffic arrives. Each batch is journaled to the WAL *before* it is
	// applied (write-ahead), so a crash can lose at most a batch no
	// caller ever saw applied.
	clean := d.Table.Row(0)
	dirty := append([]string(nil), clean...)
	dirty[1] = "ZZ" // wrong state for the area code
	diff1, err := sess.ApplyDeltasCtx(ctx, stream.Batch{stream.AppendRows(clean, dirty)})
	if err != nil {
		log.Fatal(err)
	}
	cursor := diff1.Seq // a client's polling cursor, issued pre-crash
	preCrash := append([]json.RawMessage(nil), marshalAll(sess.Violations)...)
	if _, err := sess.ApplyDeltasCtx(ctx, stream.Batch{stream.UpdateCell(3, "state", "FL")}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed 2 batches (journaled write-ahead), seq now %d, cursor held at %d\n",
		diff1.Seq+1, cursor)

	// --- the crash: lose every in-memory structure ---
	pm.Close()
	sessID := sess.ID
	sys, sess = nil, nil
	fmt.Println("\n-- crash: process state gone; only the data directory survives --")

	// --- process 2: rehydrate ---
	pm2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pm2.Close()
	sys2 := core.NewSystem(docstore.NewMem())
	restored, err := pm2.Restore(sys2)
	if err != nil {
		log.Fatal(err)
	}
	back := restored[0]
	st, _ := pm2.Status(back.ID)
	fmt.Printf("\nrestored session %s (was %s): %d rows, %d violation(s); replayed %d WAL batch(es) after checkpoint seq %d\n",
		back.ID, sessID, back.Table.NumRows(), len(back.Violations), st.WALRecords, st.CheckpointSeq)

	// Guarantee 1: recovered violations == fresh full detection, bytes.
	res, err := detect.New(back.Table, detect.Options{}).DetectAllContext(ctx, back.Confirmed, 4)
	if err != nil {
		log.Fatal(err)
	}
	if same := jsonEqual(back.Violations, res.Violations); !same {
		log.Fatal("recovered violations diverge from full re-detect")
	}
	fmt.Println("✓ recovered violation set byte-identical to a full re-detect (parallelism 4)")

	// Guarantee 2: the pre-crash cursor still resolves — the diff it
	// returns folds the client's pre-crash state onto the restored one.
	eng, err := back.Stream()
	if err != nil {
		log.Fatal(err)
	}
	diff, err := eng.Since(cursor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("✓ pre-crash cursor %d resolves: +%d -%d (reset=%v) against %d pre-crash violations\n",
		cursor, len(diff.Added), len(diff.Removed), diff.Reset, len(preCrash))

	// And the timeline continues: the next batch gets the next seq.
	diff3, err := back.ApplyDeltasCtx(ctx, stream.Batch{stream.DeleteRows(0)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("✓ timeline continues after restart: next batch got seq %d\n", diff3.Seq)
}

func marshalAll[T any](vs []T) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

func jsonEqual(a, b any) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}
