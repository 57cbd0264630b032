// Cluster shows distributed incremental detection: one coordinator
// driving three shard workers over real loopback TCP. The workers are
// the same /shard/v1 servers `anmat-server -worker` runs — here started
// in-process so the example is a single `go run` — and the coordinator
// is wired in through the ordinary session surface via WithWorkers. The
// phone→state corpus streams its committed delta script through the
// cluster, printing the merged violation diff per batch, then one worker
// is killed mid-script to show WAL-backed failover onto a spare.
//
// Run from the repository root:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	anmat "github.com/anmat/anmat"
	"github.com/anmat/anmat/internal/cluster"
)

// startWorker serves one shard worker on an ephemeral loopback port,
// exactly like `anmat-server -worker -shard-id s -of n -addr
// 127.0.0.1:0`, and returns its base URL plus a kill switch.
func startWorker(shardID, of int) (url string, kill func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	w := cluster.NewWorker(shardID, of)
	go func() { _ = http.Serve(ln, w.Handler()) }()
	return "http://" + ln.Addr().String(), func() { _ = ln.Close() }
}

func main() {
	ctx := context.Background()

	// Topology: three primaries plus one unpinned spare (-1/-1 accepts
	// whichever shard needs a home after a failure).
	const shards = 3
	urls := make([]string, shards)
	kills := make([]func(), shards)
	for s := 0; s < shards; s++ {
		urls[s], kills[s] = startWorker(s, shards)
		fmt.Printf("worker shard %d/%d at %s\n", s, shards, urls[s])
	}
	spare, _ := startWorker(-1, -1)
	fmt.Printf("spare worker at %s\n", spare)

	// The coordinator is invisible to the pipeline: sessions created on a
	// system with workers configured fan their incremental engines out
	// over the cluster and merge byte-identical violation sets back.
	tbl, err := anmat.LoadCSV("testdata/phone_state.csv")
	if err != nil {
		log.Fatal(err)
	}
	params := anmat.Params{MinCoverage: 0.05, AllowedViolations: 0.2}
	sys, err := anmat.New(anmat.WithParams(params), anmat.WithWorkers(urls, spare))
	if err != nil {
		log.Fatal(err)
	}
	sess := sys.NewSession("registry", tbl, params)
	if err := sess.Run(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d rows, %d PFD(s), %d violation(s) across %d workers\n",
		tbl.NumRows(), len(sess.Confirmed), len(sess.Violations), sess.Shards())

	// Stream the committed delta script through the cluster, printing the
	// merged violation diff each batch produces.
	raw, err := os.ReadFile("testdata/phone_state_deltas.json")
	if err != nil {
		log.Fatal(err)
	}
	var script []anmat.DeltaBatch
	if err := json.Unmarshal(raw, &script); err != nil {
		log.Fatal(err)
	}
	for bi, batch := range script {
		if bi == len(script)/2 {
			// Machine failure mid-stream: the coordinator rebuilds the dead
			// shard from its failover snapshot + WAL on the spare and keeps
			// going.
			fmt.Println("killing worker 1 — failing over to the spare")
			kills[1]()
		}
		diff, err := sess.ApplyDeltas(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d (seq %d): +%d -%d violation(s)\n",
			bi+1, diff.Seq, len(diff.Added), len(diff.Removed))
		for _, v := range diff.Added {
			fmt.Printf("  + %s | observed %q expected %q\n", v.Row, v.Observed, v.Expected)
		}
		for _, v := range diff.Removed {
			fmt.Printf("  - %s | observed %q expected %q\n", v.Row, v.Observed, v.Expected)
		}
	}

	// The tentpole invariant, checked live: after the failover the merged
	// distributed set is still byte-identical to a full re-detection.
	eng, err := sess.Stream()
	if err != nil {
		log.Fatal(err)
	}
	res, err := anmat.DetectContext(ctx, sess.Table, sess.Confirmed, 4)
	if err != nil {
		log.Fatal(err)
	}
	merged, _ := json.Marshal(eng.Violations())
	full, _ := json.Marshal(res.Violations)
	if string(merged) != string(full) {
		log.Fatal("distributed detection diverged from full detection")
	}
	fmt.Printf("exactness: %d merged violation(s) byte-identical to full detection after failover\n",
		len(res.Violations))

	st := sess.EngineStats()
	if st.Sharded != nil {
		fmt.Printf("cluster stats: %.2fx replication across %d workers\n",
			st.Sharded.Replication, st.Sharded.Shards)
		for _, ps := range st.Sharded.PerShard {
			fmt.Printf("  shard %d: %d row(s), %d violation(s)\n", ps.Shard, ps.Rows, ps.Engine.Violations)
		}
	}
}
