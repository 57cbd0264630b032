package shard

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// benchRows is the table size of the sharded-detection benchmark —
// defaults to 1M rows (the acceptance floor), overridable with
// SHARD_BENCH_ROWS for quick local runs.
func benchRows() int {
	if v := os.Getenv("SHARD_BENCH_ROWS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

var (
	benchOnce  sync.Once
	benchTable *table.Table
)

// benchCorpus generates the phone→state benchmark table once per
// process: the cmd/datagen D1 family at the configured scale with the
// default 0.5% injected error rate.
func benchCorpus() *table.Table {
	benchOnce.Do(func() {
		benchTable = datagen.PhoneState(benchRows(), 0.005, 2019).Table
	})
	return benchTable
}

func benchRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("d1_phone_state", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
}

// BenchmarkShardDetect measures a full sharded detection — coordinator
// bootstrap over the whole table, i.e. routing + K parallel engine
// builds + the global merge — at K = 1/2/4/8. Violations are
// byte-identical at every K (the tests pin that); what varies is
// wall-clock: compare the /k<N> variants' ns/op against /k1; rows/sec is
// reported as a custom metric. NOTE: with NumCPU=1 the K-way parallel
// bootstrap cannot fan out; multicore hardware is where a speedup shows.
func BenchmarkShardDetect(b *testing.B) {
	tbl := benchCorpus()
	rules := benchRules()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rows%d/k%d", tbl.NumRows(), k), func(b *testing.B) {
			// Detect-stage latency quantiles come from the span histogram
			// the per-shard engine bootstraps feed: delta the snapshot
			// around the run so only this sub-benchmark's builds count.
			span := obs.SpanHistogram("stream.bootstrap")
			before, _, beforeN := span.Snapshot()
			var violations int
			for i := 0; i < b.N; i++ {
				c, err := NewFrom(tbl, rules, k, 0)
				if err != nil {
					b.Fatal(err)
				}
				violations = len(c.Violations())
			}
			b.ReportMetric(float64(tbl.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
			b.ReportMetric(float64(violations), "violations")
			after, _, afterN := span.Snapshot()
			if afterN > beforeN {
				delta := make([]uint64, len(after))
				for i := range after {
					delta[i] = after[i] - before[i]
				}
				bounds := span.Buckets()
				b.ReportMetric(obs.Quantile(0.5, bounds, delta)*1000, "detect_p50_ms")
				b.ReportMetric(obs.Quantile(0.95, bounds, delta)*1000, "detect_p95_ms")
			}
		})
	}
}

// BenchmarkShardApply measures the incremental hot path on an already
// bootstrapped K-shard coordinator: single-row append batches routed to
// their owning shards. The coordinator build is outside the timed loop.
func BenchmarkShardApply(b *testing.B) {
	rules := benchRules()
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("append1/k%d", k), func(b *testing.B) {
			ds := datagen.PhoneState(20_000, 0.005, 7)
			c, err := NewFrom(ds.Table, rules, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := []string{fmt.Sprintf("850%07d", i), "FL"}
				if _, err := c.Apply(stream.Batch{stream.AppendRows(row)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
