// Command anmat-server runs the HTTP GUI substitute (Figures 3–5):
//
//	anmat-server [-addr :8080] [-data dir] [-in data.csv] [-parallelism n] [-shards k]
//
// With -in the dataset is loaded as a session and the pipeline run at
// startup; otherwise POST a CSV to /api/v1/sessions. The server is
// multi-session: every upload creates an independent session addressable
// under /api/v1/sessions/{id}.
//
// With -data the registry is durable: every session is checkpointed into
// <dir> (snapshot + write-ahead delta log), and a restart rehydrates all
// sessions — tables, rules, violation sets, and `violations?since=`
// sequence cursors included. Add -fsync to survive power loss, not just
// process crashes.
//
// Distributed mode (see internal/cluster):
//
//	anmat-server -worker -shard-id 0 -of 3 -addr 127.0.0.1:7001   # shard worker
//	anmat-server -workers http://127.0.0.1:7001,...               # coordinator
//
// A worker serves one shard's engine over the /shard/v1 HTTP API and is
// driven entirely by a coordinator. A coordinator runs the normal server
// with every session's incremental engine fanned out over the workers
// (one shard per worker, byte-identical results), journaling batches to
// a per-session failover WAL and failing over to -spares workers when a
// primary dies.
//
// Observability: every process (coordinator and workers) serves
// Prometheus text metrics on GET /metrics; -log-format json|text turns
// on structured request logging with request IDs; -pprof mounts
// net/http/pprof on the coordinator under /debug/pprof/. Every API
// response carries an X-Anmat-Trace-Id; the retained (tail-sampled;
// -trace-sample, -trace-cap) traces are served on GET /api/v1/traces
// and rendered by `anmat trace <id>` — including worker-side spans,
// which propagate via W3C traceparent headers on coordinator RPCs.
//
// Hardening (see README "Operations"): -max-sessions, -max-rows, and
// -delta-rate enforce per-tenant admission quotas (X-Anmat-Tenant
// header; 429 + Retry-After on rejection); all listeners carry
// slow-client timeouts; request bodies are capped. Sessions move
// between servers via GET .../backup and POST .../restore (or the
// `anmat backup`/`anmat restore` subcommands).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/server"
	"github.com/anmat/anmat/internal/table"
)

// Slow-client protection for every listener this process opens: a
// client must deliver its header promptly and keep the connection
// moving, or the goroutine serving it is reclaimed. Without these a
// slowloris client (full sockets, bytes trickling in) pins goroutines
// forever. WriteTimeout stays zero on purpose: session backups stream
// arbitrarily large tars and must not be cut mid-response.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 5 * time.Minute // large CSV uploads still fit
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the hardened http.Server both the coordinator
// and worker paths listen with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runWorker serves one shard over HTTP until interrupted. The bound
// address is printed to stdout so harnesses using -addr with port 0 can
// discover it.
func runWorker(addr string, shardID, of int, accessLog *slog.Logger) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anmat-server:", err)
		os.Exit(1)
	}
	w := cluster.NewWorker(shardID, of)
	w.SetAccessLog(accessLog)
	fmt.Printf("ANMAT worker shard %d/%d listening on %s\n", shardID, of, ln.Addr())
	httpSrv := newHTTPServer("", w.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "anmat-server:", err)
		os.Exit(1)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "durability directory: checkpoint sessions + journal deltas here, rehydrate on startup (empty = memory-only sessions)")
	fsync := flag.Bool("fsync", false, "with -data: fsync every WAL append and snapshot (power-loss durability)")
	compactEvery := flag.Int("compact-every", persist.DefaultCompactEvery, "with -data: journaled batches before a session's WAL is folded into a fresh snapshot")
	in := flag.String("in", "", "CSV to load at startup as a session")
	coverage := flag.Float64("coverage", core.DefaultParams().MinCoverage, "minimum coverage γ")
	violations := flag.Float64("violations", core.DefaultParams().AllowedViolations, "allowed violation ratio")
	parallelism := flag.Int("parallelism", 0, "pipeline workers per session: discovery candidates and detection/repair fan-out (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "incremental-detection shards per session: hash-partition each table on block keys across K independent engines (byte-identical results at any K; per-shard stats on the detection endpoint)")
	worker := flag.Bool("worker", false, "run as a shard worker: serve the /shard/v1 API on -addr and wait for a coordinator (requires -shard-id and -of)")
	shardID := flag.Int("shard-id", -1, "with -worker: this worker's shard index in [0, N); -1 accepts any slot")
	of := flag.Int("of", -1, "with -worker: the topology's total shard count N")
	workers := flag.String("workers", "", "comma-separated shard worker base URLs: run every session's incremental engine distributed over them (one shard per worker)")
	spares := flag.String("spares", "", "with -workers: comma-separated standby worker base URLs consumed on failover")
	clusterData := flag.String("cluster-data", "", "with -workers: directory for per-session worker-failover stores (snapshot + WAL, rebuilt at every start; empty = temp dirs)")
	maxSessions := flag.Int("max-sessions", 0, "per-tenant admission: max open sessions (tenant = X-Anmat-Tenant header; 0 = unlimited)")
	maxRows := flag.Int("max-rows", 0, "per-tenant admission: max total table rows across a tenant's sessions (0 = unlimited)")
	deltaRate := flag.Float64("delta-rate", 0, "per-tenant admission: sustained delta batches/sec through a token bucket (0 = unlimited)")
	logFormat := flag.String("log-format", "", "structured request logging to stderr: 'json' or 'text' (empty = off); every request line carries a request ID")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes stacks and heap contents; opt-in)")
	traceSample := flag.Float64("trace-sample", 1.0, "tail-sampling keep rate in [0,1] for unremarkable traces; errored and slow traces are always retained")
	traceCap := flag.Int("trace-cap", obs.DefaultTraceCap, "max retained traces in memory (oldest evicted first)")
	flag.Parse()

	obs.Traces.SetSampleRate(*traceSample)
	obs.Traces.SetCap(*traceCap)

	var accessLog *slog.Logger
	switch *logFormat {
	case "":
	case "json", "text":
		accessLog = obs.NewLogger(os.Stderr, *logFormat)
	default:
		fmt.Fprintf(os.Stderr, "anmat-server: -log-format %q: want 'json' or 'text'\n", *logFormat)
		os.Exit(1)
	}

	if *worker {
		runWorker(*addr, *shardID, *of, accessLog)
		return
	}

	cfg := core.DefaultSystemConfig()
	cfg.Parallelism = *parallelism
	cfg.Shards = *shards
	cfg.Workers = splitList(*workers)
	cfg.ClusterSpares = splitList(*spares)
	cfg.ClusterDir = *clusterData
	sys := core.NewSystemWith(docstore.NewMem(), cfg)
	sys.CreateProject("default")
	srv := server.New(sys)
	srv.SetAccessLog(accessLog)
	srv.SetLimits(server.Limits{MaxSessions: *maxSessions, MaxRows: *maxRows, DeltaRate: *deltaRate})
	if *pprofOn {
		srv.EnablePprof()
	}

	if *data != "" {
		pm, err := persist.Open(*data, persist.Options{Fsync: *fsync, CompactEvery: *compactEvery})
		if err != nil {
			fmt.Fprintln(os.Stderr, "anmat-server:", err)
			os.Exit(1)
		}
		defer pm.Close()
		n, err := srv.RestoreSessions(pm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anmat-server: restore:", err)
			os.Exit(1)
		}
		srv.AttachPersist(pm)
		log.Printf("durable sessions in %s: restored %d session(s)", *data, n)
		if *in != "" && srv.HasTable(table.NameFromPath(*in)) {
			// This dataset's session was just restored; reloading -in
			// would shadow it with a duplicate. Other restored sessions
			// don't block loading a new dataset.
			log.Printf("skipping -in %s: its session was restored from -data", *in)
			*in = ""
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *in != "" {
		t, err := table.ReadCSVFile(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anmat-server:", err)
			os.Exit(1)
		}
		params := core.Params{MinCoverage: *coverage, AllowedViolations: *violations}
		sess, err := srv.CreateSession(ctx, "default", t, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anmat-server:", err)
			os.Exit(1)
		}
		log.Printf("loaded %s as session %s: %d rows, %d PFDs, %d violations",
			t.Name(), sess.ID, t.NumRows(), len(sess.Discovered), len(sess.Violations))
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ANMAT server listening on %s", *addr)
	select {
	case <-ctx.Done():
		// First Ctrl-C: drain in-flight requests; restore default signal
		// handling so a second Ctrl-C force-kills.
		stop()
		log.Print("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "anmat-server:", err)
			os.Exit(1)
		}
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "anmat-server:", err)
		os.Exit(1)
	}
}
