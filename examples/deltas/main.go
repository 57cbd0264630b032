// Deltas shows the incremental detection subsystem: a session detects
// once, then batched row deltas (appends, cell updates, deletes) flow
// through the session's stream engine, which maintains the violation set
// without re-running detection and reports exactly what each batch
// changed. The maintained set stays byte-identical to a full re-detect
// at every point — here the pipeline serves a phone→state registry that
// keeps receiving traffic after the initial load.
package main

import (
	"context"
	"fmt"
	"log"

	anmat "github.com/anmat/anmat"
	"github.com/anmat/anmat/internal/datagen"
)

func main() {
	ctx := context.Background()

	// Initial load: a phone→state registry with ~1% injected errors.
	d := datagen.PhoneState(2000, 0.01, 7)
	sys, err := anmat.New()
	if err != nil {
		log.Fatal(err)
	}
	sess := sys.NewSession("registry", d.Table, anmat.DefaultParams())
	if err := sess.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s)\n",
		d.Table.NumRows(), len(sess.Discovered), len(sess.Violations))

	// Traffic arrives: one clean row, one dirty row, one in-place fix of
	// an existing record, and a retention delete — one atomic batch.
	clean := d.Table.Row(0)
	dirty := append([]string(nil), clean...)
	dirty[1] = "ZZ" // wrong state for the area code
	diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{
		anmat.AppendRows(clean, dirty),
		anmat.UpdateCell(1, "state", clean[1]),
		anmat.DeleteRows(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch seq %d: %d row(s), +%d -%d violation(s)\n",
		diff.Seq, diff.Rows, len(diff.Added), len(diff.Removed))
	for i, v := range diff.Added {
		if i == 3 {
			fmt.Printf("  + … %d more\n", len(diff.Added)-3)
			break
		}
		fmt.Printf("  + %s observed %q expected %q\n", v.Row, v.Observed, v.Expected)
	}

	// Repairs route through the same engine: fixes become cell deltas,
	// the engine is never discarded, and the diff comes back for free.
	if _, err := sess.RunRepairs(ctx); err != nil {
		log.Fatal(err)
	}
	changed, rdiff, err := sess.ApplyRepairs(ctx, sess.Repairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied %d repair(s): seq %d, -%d violation(s)\n",
		changed, rdiff.Seq, len(rdiff.Removed))

	// Poll "what changed since seq 0" — transient violations (added then
	// repaired within the span) net out of the merged diff.
	eng, err := sess.Stream()
	if err != nil {
		log.Fatal(err)
	}
	net, err := eng.Since(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("net since seq 0: +%d -%d (now %d violation(s) at seq %d)\n",
		len(net.Added), len(net.Removed), len(sess.Violations), net.Seq)
}
