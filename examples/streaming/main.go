// Streaming shows ANMAT validating records on arrival: PFDs are mined
// from a trusted history batch (ChEMBL-like compound registry), and new
// records are appended to it one by one through the session's
// incremental engine — wrong molecule types are flagged at ingestion
// time instead of in a nightly batch.
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

	// Trusted history: clean compound registry.
	history := datagen.Compound(8000, 0, 2019)
	fmt.Printf("history: %d clean rows\n", history.Table.NumRows())

	// Mine PFDs from history with a discovery-only session: profile and
	// discovery stages, no detection pass over the clean batch.
	sys, err := anmat.New()
	if err != nil {
		log.Fatal(err)
	}
	sess := sys.NewSession("stream", history.Table, anmat.DefaultParams())
	if err := sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
		log.Fatal(err)
	}
	pfds := sess.Discovered
	var idType *anmat.PFD
	for _, p := range pfds {
		if p.LHS == "compound_id" && p.RHS == "molecule_type" {
			idType = p
		}
	}
	if idType == nil {
		log.Fatal("no compound_id → molecule_type PFD mined")
	}
	fmt.Printf("mined %s with %d rule(s); e.g.\n", idType.ID(), idType.Tableau.Len())
	for i, row := range idType.Tableau.Rows() {
		if i >= 4 {
			break
		}
		fmt.Printf("  %s\n", row)
	}

	// Check arrivals against that one rule.
	sess.UseRules([]*anmat.PFD{idType})
	seen := history.Table.NumRows()

	// Stream a dirty batch of new registrations.
	batch := datagen.Compound(2000, 0.02, 77)
	injected := batch.InjectedRows()
	alerts := 0
	caught := map[int]bool{}
	for r := 0; r < batch.Table.NumRows(); r++ {
		diff, err := sess.ApplyDeltasCtx(ctx, anmat.DeltaBatch{anmat.AppendRows(batch.Table.Row(r))})
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range diff.Added {
			alerts++
			// A violation reports its later tuple as the observed one.
			tuple := v.Tuples[len(v.Tuples)-1]
			caught[tuple-seen] = true
			if alerts <= 5 {
				id, _ := sess.Table.CellByName(tuple, "compound_id")
				fmt.Printf("  ALERT row %d: %s typed %q, rule says %q (%s)\n",
					tuple-seen, id, v.Observed, v.Expected, v.Row)
			}
		}
	}
	hits := 0
	for r := range injected {
		if caught[r] {
			hits++
		}
	}
	fmt.Printf("\nstreamed %d rows: %d alerts, %d/%d injected errors caught at ingestion\n",
		batch.Table.NumRows(), alerts, hits, len(injected))
}
