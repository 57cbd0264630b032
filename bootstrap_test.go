package anmat_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/stream"
)

// TestDetectionIsTheBootstrap pins the one producer of a session's
// violations (ARCHITECTURE.md invariant 1): on every datagen family, at
// parallelism 1 and 8 and K = 1 and 2, Run leaves the session holding the
// engine its detection stage booted, its violations byte-identical to
// detect.DetectAllContext over a clone of the table, its DetectStats one
// entry per active rule in order with the rule's tableau rows, its boot
// within the parallelism — and the first delta goes through that engine
// instead of booting another.
func TestDetectionIsTheBootstrap(t *testing.T) {
	ctx := context.Background()
	for _, fam := range goldenDiscoveryFamilies {
		for _, seed := range []int64{2019, 7919} {
			for _, par := range []int{1, 8} {
				for _, k := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s_%d_p%d_k%d", fam.name, seed, par, k), func(t *testing.T) {
						tbl := fam.gen(600, 0.02, seed).Table
						ref := tbl.Clone()
						sys := core.NewSystemWith(docstore.NewMem(), core.SystemConfig{Params: core.DefaultParams(), Parallelism: par, Shards: k})
						se := sys.NewSession("p", tbl, core.DefaultParams())
						if err := se.Run(ctx); err != nil {
							t.Fatal(err)
						}
						rules := se.Confirmed
						if len(rules) == 0 {
							t.Fatal("the fixture mined no rule: the test would compare nothing")
						}
						want, err := detect.New(ref, detect.Options{}).DetectAllContext(ctx, rules, par)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := jsonOf(t, se.Violations), jsonOf(t, want.Violations); got != want {
							t.Fatalf("violations after Run differ from a full detection over a clone:\n got %s\nwant %s", got, want)
						}
						if len(se.DetectStats) != len(rules) {
							t.Fatalf("DetectStats for %d rules, want %d", len(se.DetectStats), len(rules))
						}
						for i, st := range se.DetectStats {
							if st.PFDID != rules[i].ID() || st.Rows != rules[i].Tableau.Len() {
								t.Fatalf("DetectStats[%d] = %s over %d rows, want %s over %d", i, st.PFDID, st.Rows, rules[i].ID(), rules[i].Tableau.Len())
							}
						}

						st := se.EngineStats()
						if st.Kind == "none" {
							t.Fatal("Run left the session without the engine its detection booted")
						}
						// Parallelism bounds the boot: a shard node boots on its
						// share of the workers (shard.Config.Parallelism).
						workers := []int{}
						if st.Stream != nil {
							workers = append(workers, st.Stream.BootWorkers)
						} else {
							for _, sh := range st.Sharded.PerShard {
								workers = append(workers, sh.Engine.BootWorkers)
							}
						}
						for i, w := range workers {
							if w < 1 || w > max(1, par/k) {
								t.Fatalf("engine %d booted on %d workers at parallelism %d, K = %d", i, w, par, k)
							}
						}
						eng, err := se.Stream()
						if err != nil {
							t.Fatal(err)
						}
						diff, err := se.ApplyDeltasCtx(ctx, stream.Batch{stream.AppendRows(se.Table.Row(0))})
						if err != nil {
							t.Fatal(err)
						}
						if again, _ := se.Stream(); again != eng || diff.Seq != 1 {
							t.Fatalf("the first delta landed at seq %d on another engine (%v): want seq 1 on the one Run built", diff.Seq, again != eng)
						}
					})
				}
			}
		}
	}
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
