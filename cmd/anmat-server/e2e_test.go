// Multi-process cluster e2e: the acceptance tests for distributed mode.
// Workers are real anmat-server processes — the test binary re-execs
// itself into main() via the ANMAT_SERVER_MAIN env gate — listening on
// loopback TCP ports, and the coordinator drives them through the public
// session surface. The golden corpus (testdata/phone_state.csv) and its
// committed delta script replay through N ∈ {1,2,4} workers and must
// stay byte-identical to a fresh full detection after every batch; the
// failover test kills one worker process mid-script and requires the
// WAL-backed replacement to preserve both byte-identity and
// violations?since= cursor continuity.
//
// Worker logs land in $ANMAT_E2E_LOGDIR (one file per worker) so CI can
// upload them as artifacts when a run fails; unset, they go to a test
// temp dir.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	anmat "github.com/anmat/anmat"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/obs/obstest"
)

func TestMain(m *testing.M) {
	if os.Getenv("ANMAT_SERVER_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// e2eLogDir resolves where worker subprocess logs are written.
func e2eLogDir(t *testing.T) string {
	if d := os.Getenv("ANMAT_E2E_LOGDIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	}
	return t.TempDir()
}

// workerProc is one shard worker subprocess.
type workerProc struct {
	cmd *exec.Cmd
	url string
}

// kill terminates the worker hard, simulating a crashed machine.
func (w *workerProc) kill() {
	_ = w.cmd.Process.Kill()
	_, _ = w.cmd.Process.Wait()
}

// startWorkerProc launches the test binary as `anmat-server -worker` on
// an ephemeral loopback port and parses the bound address off stdout.
func startWorkerProc(t *testing.T, logDir, name string, shardID, of int) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-worker",
		"-shard-id", fmt.Sprint(shardID),
		"-of", fmt.Sprint(of),
		"-addr", "127.0.0.1:0",
	)
	cmd.Env = append(os.Environ(), "ANMAT_SERVER_MAIN=1")
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = logf.Close() })
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker %s: %v", name, err)
	}
	w := &workerProc{cmd: cmd}
	t.Cleanup(w.kill)

	// First stdout line: "ANMAT worker shard S/N listening on ADDR".
	lines := make(chan string, 1)
	scanner := bufio.NewScanner(stdout)
	go func() {
		if scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok || !strings.Contains(line, "listening on") {
			t.Fatalf("worker %s: unexpected banner %q", name, line)
		}
		fields := strings.Fields(line)
		w.url = "http://" + fields[len(fields)-1]
	case <-time.After(15 * time.Second):
		t.Fatalf("worker %s: no listen banner within 15s", name)
	}
	go func() { _, _ = io.Copy(logf, stdout) }() // rest of stdout into the log
	t.Logf("worker %s at %s (log %s)", name, w.url, filepath.Join(logDir, name+".log"))
	return w
}

// goldenSession loads the committed phone_state corpus, mines its rules,
// runs baseline detection, and returns the session — with its
// incremental engine distributed over the given workers — plus the table
// and the active rule set.
func goldenSession(t *testing.T, urls, spares []string) (*anmat.Session, *anmat.Table, []*anmat.PFD) {
	t.Helper()
	tbl, err := anmat.LoadCSV(filepath.Join("..", "..", "testdata", "phone_state.csv"))
	if err != nil {
		t.Fatal(err)
	}
	params := anmat.Params{MinCoverage: 0.05, AllowedViolations: 0.2}
	sys, err := anmat.New(anmat.WithParams(params), anmat.WithWorkers(urls, spares...))
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession("e2e", tbl, params)
	ctx := context.Background()
	if err := sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
		t.Fatal(err)
	}
	var rules []*anmat.PFD
	for _, p := range sess.Discovered {
		if p.LHS == "phone" && p.RHS == "state" {
			rules = append(rules, p)
		}
	}
	if len(rules) == 0 {
		t.Fatal("discovery found no phone→state rule")
	}
	sess.UseRules(rules)
	if _, err := sess.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	return sess, tbl, rules
}

// loadScript reads the committed delta script.
func loadScript(t *testing.T) []anmat.DeltaBatch {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phone_state_deltas.json"))
	if err != nil {
		t.Fatal(err)
	}
	var script []anmat.DeltaBatch
	if err := json.Unmarshal(raw, &script); err != nil {
		t.Fatalf("parse delta script: %v", err)
	}
	return script
}

// assertByteIdentical checks the session's maintained violation set
// against a fresh full detection over the current table, at parallelism
// 1 and 4.
func assertByteIdentical(t *testing.T, sess *anmat.Session, tbl *anmat.Table, rules []*anmat.PFD, label string) {
	t.Helper()
	eng, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	maintained, err := json.Marshal(eng.Violations())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := anmat.Detect(context.Background(), tbl, rules, par)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		full, err := json.Marshal(res.Violations)
		if err != nil {
			t.Fatal(err)
		}
		if string(maintained) != string(full) {
			t.Fatalf("%s: maintained set not byte-identical to full detection at parallelism %d:\n got %s\nwant %s",
				label, par, maintained, full)
		}
	}
}

// TestE2EGoldenCorpusAcrossProcesses replays the golden corpus + delta
// script through a coordinator whose N workers are separate anmat-server
// processes behind real TCP, for N ∈ {1,2,4}.
func TestE2EGoldenCorpusAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			logDir := e2eLogDir(t)
			urls := make([]string, n)
			for s := 0; s < n; s++ {
				urls[s] = startWorkerProc(t, logDir, fmt.Sprintf("equiv-n%d-shard%d", n, s), s, n).url
			}
			sess, tbl, rules := goldenSession(t, urls, nil)
			assertByteIdentical(t, sess, tbl, rules, "baseline")
			for bi, batch := range loadScript(t) {
				if _, err := sess.ApplyDeltasCtx(context.Background(), batch); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				assertByteIdentical(t, sess, tbl, rules, fmt.Sprintf("batch %d", bi+1))
			}
		})
	}
}

// scrapeProm fetches one /metrics endpoint over HTTP and parses the
// exposition strictly — so every e2e scrape doubles as a format check.
func scrapeProm(t *testing.T, url string) ([]obs.Sample, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	samples, _, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("scrape %s: exposition does not parse: %v", url, err)
	}
	return samples, string(body)
}

// dumpProm writes one scraped exposition into the e2e log dir, where CI
// uploads it as a metrics-snapshot artifact.
func dumpProm(t *testing.T, logDir, name, text string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(logDir, name+".prom"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestE2EMetricsReconcile replays the golden delta script through two
// worker processes and reconciles the observability layer across the
// process boundary: for every shard, the number of batches the
// coordinator counted as successfully routed
// (anmat_shard_node_batches_total{outcome="ok"}) must equal the number
// the worker counted as applied (anmat_worker_batches_applied_total) on
// its own /metrics endpoint. Coordinator-side counters are read as
// before/after deltas because the process-global registry accumulates
// across tests; worker processes are fresh, so their counters are
// absolute.
func TestE2EMetricsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	logDir := e2eLogDir(t)
	const n = 2
	urls := make([]string, n)
	for s := 0; s < n; s++ {
		urls[s] = startWorkerProc(t, logDir, fmt.Sprintf("metrics-shard%d", s), s, n).url
	}
	// The coordinator runs in the test process; serve its registry the
	// same way `GET /metrics` does so the scrape path is exercised.
	coord := httptest.NewServer(obs.Default.Handler())
	defer coord.Close()

	before, _ := scrapeProm(t, coord.URL)
	sess, _, _ := goldenSession(t, urls, nil)
	script := loadScript(t)
	for bi, batch := range script {
		if _, err := sess.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	after, coordText := scrapeProm(t, coord.URL)
	dumpProm(t, logDir, "metrics-coordinator", coordText)

	var totalRouted float64
	for s := 0; s < n; s++ {
		shard := strconv.Itoa(s)
		okLbl := map[string]string{"shard": shard, "outcome": "ok"}
		routed := obs.SumSamples(after, "anmat_shard_node_batches_total", okLbl) -
			obs.SumSamples(before, "anmat_shard_node_batches_total", okLbl)
		totalRouted += routed
		wsamples, wtext := scrapeProm(t, urls[s]+"/metrics")
		dumpProm(t, logDir, fmt.Sprintf("metrics-worker%d", s), wtext)
		applied := obs.SumSamples(wsamples, "anmat_worker_batches_applied_total",
			map[string]string{"shard": shard})
		if routed != applied {
			t.Errorf("shard %d: coordinator routed %v ok batches, worker applied %v",
				s, routed, applied)
		}
		if redelivered := obs.SumSamples(wsamples, "anmat_worker_redeliveries_total",
			map[string]string{"shard": shard}); redelivered != 0 {
			t.Logf("shard %d: %v redeliveries (retries hit the idempotency cache)", s, redelivered)
		}
	}
	if totalRouted == 0 {
		t.Fatalf("no ok batches routed: the delta script (%d batches) left no trace in the counters", len(script))
	}
}

// TestE2EFailoverMidScript kills one worker process mid-script: the
// coordinator must fail over to the spare worker by replaying the dead
// shard's WAL, keep every remaining batch byte-identical, and keep
// pre-failure violations?since= cursors resolving exactly.
func TestE2EFailoverMidScript(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	logDir := e2eLogDir(t)
	const n = 2
	workers := make([]*workerProc, n)
	urls := make([]string, n)
	for s := 0; s < n; s++ {
		workers[s] = startWorkerProc(t, logDir, fmt.Sprintf("failover-shard%d", s), s, n)
		urls[s] = workers[s].url
	}
	// The spare is unpinned (-1/-1): it accepts whichever shard dies.
	spare := startWorkerProc(t, logDir, "failover-spare", -1, -1)

	sess, tbl, rules := goldenSession(t, urls, []string{spare.url})
	assertByteIdentical(t, sess, tbl, rules, "baseline")
	script := loadScript(t)
	mid := len(script) / 2

	for bi, batch := range script[:mid] {
		if _, err := sess.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatalf("pre-kill batch %d: %v", bi, err)
		}
		assertByteIdentical(t, sess, tbl, rules, fmt.Sprintf("pre-kill batch %d", bi+1))
	}

	// Pre-failure cursor: snapshot the maintained set and sequence.
	eng, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	cursor := eng.Seq()
	preSet := make(map[string]anmat.Violation)
	for _, v := range eng.Violations() {
		preSet[v.Key()] = v
	}

	t.Log("killing worker 1")
	workers[1].kill()

	for bi, batch := range script[mid:] {
		if _, err := sess.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatalf("post-kill batch %d: %v", bi, err)
		}
		assertByteIdentical(t, sess, tbl, rules, fmt.Sprintf("post-kill batch %d", bi+1))
	}
	if eng.Stale() {
		t.Fatal("engine poisoned despite spare being available")
	}

	// Cursor continuity: the net diff since the pre-failure cursor folds
	// the pre-failure snapshot exactly onto the current maintained set.
	d, err := eng.Since(cursor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset {
		t.Fatal("pre-failure cursor resolved to a reset snapshot")
	}
	for _, v := range d.Removed {
		if _, ok := preSet[v.Key()]; !ok {
			t.Fatalf("since-diff removed a violation the cursor never saw: %+v", v)
		}
		delete(preSet, v.Key())
	}
	for _, v := range d.Added {
		preSet[v.Key()] = v
	}
	cur := eng.Violations()
	if len(preSet) != len(cur) {
		t.Fatalf("cursor fold has %d violations, maintained set has %d", len(preSet), len(cur))
	}
	for _, v := range cur {
		if _, ok := preSet[v.Key()]; !ok {
			t.Fatalf("cursor fold is missing %+v", v)
		}
	}

	// Metrics snapshots for the CI artifact: the coordinator registry,
	// the surviving primary, and the spare now serving the dead shard.
	// The failover itself must be visible in the coordinator's counters.
	coordText := obstest.Text()
	dumpProm(t, logDir, "failover-coordinator", coordText)
	samples, _, err := obs.ParseText(coordText)
	if err != nil {
		t.Fatalf("coordinator exposition does not parse: %v", err)
	}
	if got := obs.SumSamples(samples, "anmat_shard_failovers_total",
		map[string]string{"shard": "1"}); got < 1 {
		t.Errorf("anmat_shard_failovers_total{shard=\"1\"} = %v, want >= 1", got)
	}
	_, survivorText := scrapeProm(t, urls[0]+"/metrics")
	dumpProm(t, logDir, "failover-worker0", survivorText)
	_, spareText := scrapeProm(t, spare.url+"/metrics")
	dumpProm(t, logDir, "failover-spare", spareText)
}
