package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// clusterKs is the worker-count matrix the equivalence tests run at.
var clusterKs = []int{1, 2, 4, 8}

func testRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("T", "code", "city", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<90>\D{3}`), RHS: "LA"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{3}`), RHS: tableau.Wildcard},
		)),
		pfd.New("T", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<85>\D{3}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D+>\D+`), RHS: tableau.Wildcard},
		)),
	}
}

func randRow(rng *rand.Rand) []string {
	codes := []string{"90001", "90002", "10001", "85777", "85778", "abcde", ""}
	cities := []string{"LA", "NY", "SF", ""}
	phones := []string{"85123", "85124", "21111", "21112", "90909", "xyz"}
	states := []string{"FL", "NY", "CA"}
	return []string{
		codes[rng.Intn(len(codes))],
		cities[rng.Intn(len(cities))],
		phones[rng.Intn(len(phones))],
		states[rng.Intn(len(states))],
	}
}

func testTable(rng *rand.Rand, rows int) *table.Table {
	t := table.MustNew("T", []string{"code", "city", "phone", "state"})
	for i := 0; i < rows; i++ {
		t.MustAppend(randRow(rng)...)
	}
	return t
}

// randBatch draws one non-empty valid-shaped batch against the table's
// current size (the same generator as the shard package's property test).
func randBatch(rng *rand.Rand, tbl *table.Table) stream.Batch {
	columns := tbl.Columns()
	var batch stream.Batch
	for len(batch) == 0 {
		for _, kind := range []stream.OpKind{stream.OpAppend, stream.OpUpdate, stream.OpDelete} {
			if rng.Intn(3) != 0 {
				continue
			}
			switch kind {
			case stream.OpAppend:
				n := 1 + rng.Intn(3)
				rows := make([][]string, n)
				for i := range rows {
					rows[i] = randRow(rng)
				}
				batch = append(batch, stream.AppendRows(rows...))
			case stream.OpUpdate:
				if tbl.NumRows() == 0 {
					continue
				}
				batch = append(batch, stream.UpdateCell(
					rng.Intn(tbl.NumRows()),
					columns[rng.Intn(len(columns))],
					randRow(rng)[rng.Intn(4)],
				))
			case stream.OpDelete:
				if tbl.NumRows() < 3 {
					continue
				}
				n := 1 + rng.Intn(2)
				drop := make([]int, n)
				for i := range drop {
					drop[i] = rng.Intn(tbl.NumRows())
				}
				batch = append(batch, stream.DeleteRows(drop...))
			}
		}
	}
	return batch
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func fullDetect(t *testing.T, tbl *table.Table, rules []*pfd.PFD) []pfd.Violation {
	t.Helper()
	res, err := detect.New(tbl, detect.Options{}).DetectAllContext(context.Background(), rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}

// startWorkers spins up n shard workers as real HTTP servers on loopback
// TCP ports and returns their base URLs. Worker request logs go to the
// test log.
func startWorkers(t *testing.T, n, of int) []string {
	t.Helper()
	urls := make([]string, n)
	for s := 0; s < n; s++ {
		w := NewWorker(s, of)
		w.SetLogf(t.Logf)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[s] = srv.URL
	}
	return urls
}

func fastClient() ClientOptions {
	return ClientOptions{
		Timeout: 2 * time.Second,
		Retry:   Backoff{Tries: 3, Base: time.Millisecond, Max: 10 * time.Millisecond},
	}
}

// TestClusterEquivalence replays random delta scripts through a cluster
// coordinator whose K workers are real HTTP servers on loopback TCP, and
// after every batch asserts the merged violation set is byte-identical to
// (a) a fresh full detection over the global table, (b) a single-engine
// replica fed the same batches, and (c) an in-process K-shard coordinator
// fed the same batches — for K ∈ {1,2,4,8}.
func TestClusterEquivalence(t *testing.T) {
	for _, k := range clusterKs {
		for seed := int64(0); seed < 3; seed++ {
			k, seed := k, seed
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tbl := testTable(rng, 12)
				rules := testRules()

				replicaTbl := tbl.Clone()
				replica, err := stream.NewEngineFrom(replicaTbl, rules, 0)
				if err != nil {
					t.Fatal(err)
				}
				inprocTbl := tbl.Clone()
				inproc, err := shard.NewFrom(inprocTbl, rules, k, 0)
				if err != nil {
					t.Fatal(err)
				}

				c, err := New(tbl, rules, startWorkers(t, k, k), Options{Client: fastClient()})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if got, want := mustJSON(t, c.Violations()), mustJSON(t, fullDetect(t, tbl, rules)); got != want {
					t.Fatalf("bootstrap diverged:\n got %s\nwant %s", got, want)
				}

				for step := 0; step < 25; step++ {
					batch := randBatch(rng, tbl)
					diff, err := c.Apply(batch)
					if err != nil {
						// Random scripts can produce out-of-range ops; a rejected
						// batch must be a no-op everywhere.
						if got, want := mustJSON(t, c.Violations()), mustJSON(t, fullDetect(t, tbl, rules)); got != want {
							t.Fatalf("step %d: rejected batch mutated state", step)
						}
						continue
					}
					rdiff, err := replica.Apply(batch)
					if err != nil {
						t.Fatalf("step %d: replica rejected a batch the cluster accepted: %v", step, err)
					}
					if _, err := inproc.Apply(batch); err != nil {
						t.Fatalf("step %d: in-process coordinator rejected a batch the cluster accepted: %v", step, err)
					}
					got := mustJSON(t, c.Violations())
					if want := mustJSON(t, fullDetect(t, tbl, rules)); got != want {
						t.Fatalf("step %d: cluster diverged from full detection:\n got %s\nwant %s", step, got, want)
					}
					if want := mustJSON(t, replica.Violations()); got != want {
						t.Fatalf("step %d: cluster diverged from single engine", step)
					}
					if want := mustJSON(t, inproc.Violations()); got != want {
						t.Fatalf("step %d: cluster diverged from in-process coordinator", step)
					}
					if mustJSON(t, diff.Added) != mustJSON(t, rdiff.Added) || mustJSON(t, diff.Removed) != mustJSON(t, rdiff.Removed) {
						t.Fatalf("step %d: cluster diff diverged from single-engine diff", step)
					}
				}
			})
		}
	}
}

// flakyTransport wraps the default transport with injected failures:
// some requests are lost before they reach the worker, and some
// responses are lost after the worker processed the request — the case
// that makes blind retries dangerous without seq idempotency.
type flakyTransport struct {
	mu       sync.Mutex
	rng      *rand.Rand
	dropReq  float64
	dropResp float64

	lostRequests  int
	lostResponses int
}

func (ft *flakyTransport) roll(p float64) bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.rng.Float64() < p
}

func (ft *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ft.roll(ft.dropReq) {
		ft.mu.Lock()
		ft.lostRequests++
		ft.mu.Unlock()
		return nil, errors.New("flaky: request lost")
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if ft.roll(ft.dropResp) {
		resp.Body.Close()
		ft.mu.Lock()
		ft.lostResponses++
		ft.mu.Unlock()
		return nil, errors.New("flaky: response lost")
	}
	return resp, nil
}

// TestSeqIdempotencyUnderFlakyTransport drives a cluster through a
// transport that loses requests and responses at a 20% rate each. Lost
// responses force the client to redeliver batches the worker already
// applied; the worker's seq idempotency must absorb them — any duplicate
// application would corrupt the maintained set and break byte-identity.
func TestSeqIdempotencyUnderFlakyTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := testTable(rng, 12)
	rules := testRules()
	replicaTbl := tbl.Clone()
	replica, err := stream.NewEngineFrom(replicaTbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}

	ft := &flakyTransport{rng: rand.New(rand.NewSource(99)), dropReq: 0.2, dropResp: 0.2}
	opts := Options{Client: ClientOptions{
		Timeout:    2 * time.Second,
		Retry:      Backoff{Tries: 25, Base: time.Microsecond, Max: time.Millisecond},
		HTTPClient: &http.Client{Transport: ft},
	}}
	c, err := New(tbl, rules, startWorkers(t, 2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	applied := 0
	for step := 0; step < 30; step++ {
		batch := randBatch(rng, tbl)
		if _, err := c.Apply(batch); err != nil {
			if got, want := mustJSON(t, c.Violations()), mustJSON(t, fullDetect(t, tbl, rules)); got != want {
				t.Fatalf("step %d: rejected batch mutated state", step)
			}
			continue
		}
		applied++
		if _, err := replica.Apply(batch); err != nil {
			t.Fatalf("step %d: replica rejected: %v", step, err)
		}
		if got, want := mustJSON(t, c.Violations()), mustJSON(t, replica.Violations()); got != want {
			t.Fatalf("step %d: flaky-transport cluster diverged from single engine:\n got %s\nwant %s", step, got, want)
		}
	}
	if applied == 0 {
		t.Fatal("script applied no batches")
	}
	if c.Seq() != int64(applied) {
		t.Fatalf("coordinator seq %d after %d applied batches", c.Seq(), applied)
	}
	ft.mu.Lock()
	lostReq, lostResp := ft.lostRequests, ft.lostResponses
	ft.mu.Unlock()
	if lostReq == 0 || lostResp == 0 {
		t.Fatalf("flaky transport exercised nothing (lost %d requests, %d responses)", lostReq, lostResp)
	}
	t.Logf("flaky transport: %d requests lost, %d responses lost (redeliveries), %d batches applied once each",
		lostReq, lostResp, applied)
}

// TestFailoverRestoresFromWAL kills one worker mid-script and verifies
// the coordinator rehydrates a spare from snapshot + WAL replay: byte
// identity continues, and a violations-since cursor taken before the
// failure still resolves exactly (the coordinator's diff log survives
// the swap).
func TestFailoverRestoresFromWAL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := testTable(rng, 12)
	rules := testRules()
	replicaTbl := tbl.Clone()
	replica, err := stream.NewEngineFrom(replicaTbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}

	const k = 2
	workers := make([]*httptest.Server, k)
	urls := make([]string, k)
	for s := 0; s < k; s++ {
		w := NewWorker(s, k)
		w.SetLogf(t.Logf)
		workers[s] = httptest.NewServer(w.Handler())
		defer workers[s].Close()
		urls[s] = workers[s].URL
	}
	// The spare accepts any slot (shard -1 = unpinned).
	spareW := NewWorker(-1, -1)
	spareW.SetLogf(t.Logf)
	spare := httptest.NewServer(spareW.Handler())
	defer spare.Close()

	dir := t.TempDir()
	c, err := New(tbl, rules, urls, Options{
		Dir:    dir,
		Spares: []string{spare.URL},
		Client: fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Snapshot the merged set at the pre-failure cursor: the Since diff
	// taken after the failover must fold this snapshot exactly onto the
	// then-current set.
	preSet := make(map[string]pfd.Violation)
	for _, v := range c.Violations() {
		preSet[v.Key()] = v
	}
	cursor := c.Seq()

	step := func(label string, steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			batch := randBatch(rng, tbl)
			if _, err := c.Apply(batch); err != nil {
				continue
			}
			if _, err := replica.Apply(batch); err != nil {
				t.Fatalf("%s %d: replica rejected: %v", label, i, err)
			}
			if got, want := mustJSON(t, c.Violations()), mustJSON(t, replica.Violations()); got != want {
				t.Fatalf("%s %d: cluster diverged from single engine:\n got %s\nwant %s", label, i, got, want)
			}
		}
	}

	step("pre-kill", 8)

	// Kill worker 1 hard: in-flight and future connections die.
	workers[1].CloseClientConnections()
	workers[1].Close()

	step("post-kill", 8)

	if c.Stale() {
		t.Fatal("coordinator poisoned despite spare being available")
	}
	// The spare must have been claimed and hold worker 1's state.
	st, err := spareW.node.Stats()
	if err != nil || st.Rows == 0 {
		t.Fatalf("spare worker not serving shard state (stats %+v, err %v)", st, err)
	}

	// Cursor continuity: the net diff since the pre-failure cursor must
	// fold the pre-failure snapshot exactly onto the current merged set.
	d, err := c.Since(cursor)
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
	folded := make([]pfd.Violation, 0, len(preSet))
	for _, v := range preSet {
		folded = append(folded, v)
	}
	detect.SortViolations(folded)
	if got, want := mustJSON(t, folded), mustJSON(t, c.Violations()); got != want {
		t.Fatalf("cursor fold diverged after failover:\n got %s\nwant %s", got, want)
	}
}

// TestStoreDropsTornTail tears the final record of the store's one WAL
// — the shape a failed append leaves — and checks rehydration lands on
// the timeline before it, trims the tear, and that the batch journaled
// next is replayed rather than stranded behind it.
func TestStoreDropsTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := testTable(rng, 10)
	rules := testRules()
	dir := t.TempDir()
	st, err := CreateStore(dir, tbl, rules, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "cluster.snap" || entries[1].Name() != "cluster.wal" {
		t.Fatalf("store directory holds %v, want cluster.snap + cluster.wal", entries)
	}

	// Drive a translator alongside the store, as the coordinator would.
	tr, err := shard.NewTranslator(tbl, rules, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cluster.wal")
	size := func() int64 {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	rehydrated := func(wantSeq int64) {
		t.Helper()
		for s := 0; s < 2; s++ {
			boot, _, gotSeq, err := st.RehydrateBoot(s)
			if err != nil {
				t.Fatal(err)
			}
			if gotSeq != wantSeq {
				t.Fatalf("shard %d rehydrated to seq %d, want %d", s, gotSeq, wantSeq)
			}
			want := tr.Boot(s)
			if mustJSON(t, boot) != mustJSON(t, want) {
				t.Fatalf("shard %d rehydrated boot diverged:\n got %s\nwant %s", s, mustJSON(t, boot), mustJSON(t, want))
			}
		}
	}
	seq := int64(0)
	journal := func(batch stream.Batch) {
		t.Helper()
		seq++
		if err := st.Append(context.Background(), seq, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		batch := stream.Batch{stream.AppendRows(randRow(rng))}
		journal(batch)
		if _, _, err := tr.Translate(batch); err != nil {
			t.Fatal(err)
		}
	}
	clean := size()
	rehydrated(5)

	// Batch 6 is cut mid-record: it was never acknowledged, so the
	// translator never saw it.
	journal(stream.Batch{stream.AppendRows(randRow(rng))})
	if err := os.Truncate(path, (clean+size())/2); err != nil {
		t.Fatal(err)
	}
	seq--
	rehydrated(5)
	if got := size(); got != clean {
		t.Fatalf("torn tail not trimmed: %d bytes, want %d", got, clean)
	}

	batch := stream.Batch{stream.AppendRows(randRow(rng))}
	journal(batch)
	if _, _, err := tr.Translate(batch); err != nil {
		t.Fatal(err)
	}
	rehydrated(6)
}

// TestBackoffDo covers the retry helper: eventual success, permanent
// short-circuit, budget exhaustion, and context cancellation mid-wait.
func TestBackoffDo(t *testing.T) {
	b := Backoff{Tries: 4, Base: time.Microsecond, Max: 10 * time.Microsecond}

	calls := 0
	err := b.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("eventual success: err %v after %d calls", err, calls)
	}

	calls = 0
	sentinel := errors.New("bad request")
	err = b.Do(context.Background(), func() error {
		calls++
		return Permanent(sentinel)
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("permanent: err %v after %d calls (want 1)", err, calls)
	}

	calls = 0
	underlying := errors.New("connection refused")
	err = b.Do(context.Background(), func() error {
		calls++
		return underlying
	})
	if err == nil || calls != 4 {
		t.Fatalf("exhaustion: err %v after %d calls (want 4)", err, calls)
	}
	// The giving-up report must surface the attempt count and the last
	// underlying cause, both in the message and through errors.As/Is.
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Fatalf("exhaustion error %v: want *RetryError with Attempts=4, got %+v", err, re)
	}
	if !errors.Is(err, underlying) {
		t.Fatalf("exhaustion error %v does not unwrap to the last cause", err)
	}
	if !strings.Contains(err.Error(), "4 attempt(s)") || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("exhaustion message %q hides the attempts or the cause", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := Backoff{Tries: 3, Base: time.Hour}
	calls = 0
	err = slow.Do(ctx, func() error {
		calls++
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancellation: err %v after %d calls", err, calls)
	}
	// The cancellation path reports the same attempt/cause detail: the
	// operator sees what kept failing, not just "context canceled".
	if re = nil; !errors.As(err, &re) || re.Attempts != 1 || re.Last == nil {
		t.Fatalf("cancellation error %v: want *RetryError with Attempts=1 and Last set", err)
	}
	if !strings.Contains(err.Error(), "transient") {
		t.Fatalf("cancellation message %q hides the last underlying error", err)
	}
}

// TestEpochFencing pins the ownership-transfer contract: a worker booted
// under one coordinator epoch refuses batches and epoch-tagged reads
// from a superseded epoch, while header-less operator reads keep
// working.
func TestEpochFencing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tbl := testTable(rng, 8)
	rules := testRules()

	w := NewWorker(0, 1)
	w.SetLogf(t.Logf)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	optsA, optsB := fastClient(), fastClient()
	optsA.Epoch, optsB.Epoch = "epoch-a", "epoch-b"
	nodeA := NewRemoteNode(srv.URL, optsA)
	nodeB := NewRemoteNode(srv.URL, optsB)

	trA, err := shard.NewTranslator(tbl, rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodeA.Init(trA.Boot(0), rules, 0); err != nil {
		t.Fatal(err)
	}
	batch := stream.Batch{stream.AppendRows(randRow(rng))}
	ops, _, err := trA.Translate(batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodeA.Apply(context.Background(), shard.NodeBatch{Seq: 1, Ops: ops[0]}); err != nil {
		t.Fatal(err)
	}

	// B boots the same worker: an ownership transfer that fences A out.
	trB, err := shard.NewTranslator(tbl.Clone(), rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Init(trB.Boot(0), rules, 1); err != nil {
		t.Fatal(err)
	}

	if _, err := nodeA.Apply(context.Background(), shard.NodeBatch{Seq: 2}); err == nil {
		t.Fatal("superseded epoch's apply succeeded")
	}
	if _, err := nodeA.Violations(); err == nil {
		t.Fatal("superseded epoch's read succeeded")
	}
	// The live epoch and header-less operator reads still work.
	if _, err := nodeB.Apply(context.Background(), shard.NodeBatch{Seq: 2}); err != nil {
		t.Fatalf("live epoch's apply failed: %v", err)
	}
	resp, err := http.Get(srv.URL + APIPrefix + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-less operator read answered %s", resp.Status)
	}
}

// TestWorkerApplyFailurePoisons pins the half-applied-batch defense: an
// apply that fails mid-batch leaves partially mutated state, so the
// worker must refuse everything (412, permanent at the client) until a
// restore re-boots it — a blind retry of the 500 would re-apply the
// whole batch onto the partial state and could silently corrupt it.
func TestWorkerApplyFailurePoisons(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := testTable(rng, 8)
	rules := testRules()

	w := NewWorker(0, 1)
	w.SetLogf(t.Logf)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	node := NewRemoteNode(srv.URL, fastClient())

	tr, err := shard.NewTranslator(tbl, rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Init(tr.Boot(0), rules, 0); err != nil {
		t.Fatal(err)
	}

	// Op 0 applies cleanly, op 1 fails: state is now half-mutated.
	good := stream.AppendRows(randRow(rng))
	bad := stream.DeleteRows(999)
	nb := shard.NodeBatch{Seq: 1, Ops: []shard.NodeOp{
		{Op: &good, Globals: []int{tbl.NumRows()}},
		{Op: &bad},
	}}
	if _, err := node.Apply(context.Background(), nb); err == nil {
		t.Fatal("invalid batch accepted")
	}

	// Poisoned: even a clean batch (and the redelivery a retrying
	// coordinator would send) must fail permanently, not re-apply.
	if _, err := node.Apply(context.Background(), shard.NodeBatch{Seq: 2}); err == nil {
		t.Fatal("poisoned worker accepted a batch")
	}
	st, err := node.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready {
		t.Fatal("poisoned worker reports Ready")
	}
	// The probe must be diagnostic, not look like a fresh spare: the
	// poisoned flag and the slot it was serving survive the state drop.
	if !st.Poisoned {
		t.Fatal("healthz does not report Poisoned after a failed apply")
	}
	if st.Shard != 0 || st.Of != 1 {
		t.Fatalf("poisoned healthz reports slot %d/%d, want 0/1", st.Shard, st.Of)
	}

	// A restore (the coordinator's WAL failover path) revives it.
	if err := node.Restore(tr.Boot(0), rules, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Apply(context.Background(), shard.NodeBatch{Seq: 6}); err != nil {
		t.Fatalf("restored worker rejected a batch: %v", err)
	}
}

// TestWorkerSeqConflicts pins the worker's idempotency contract at the
// HTTP level: redelivery of the last batch replays the cached response,
// a gap is a 409 the client treats as permanent, and an uninitialized
// worker answers 412.
func TestWorkerSeqConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := testTable(rng, 8)
	rules := testRules()

	w := NewWorker(0, 1)
	w.SetLogf(t.Logf)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	node := NewRemoteNode(srv.URL, fastClient())

	if _, err := node.Apply(context.Background(), shard.NodeBatch{Seq: 1}); err == nil {
		t.Fatal("apply before init succeeded")
	}

	tr, err := shard.NewTranslator(tbl, rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Init(tr.Boot(0), rules, 0); err != nil {
		t.Fatal(err)
	}

	batch := stream.Batch{stream.AppendRows(randRow(rng))}
	ops, _, err := tr.Translate(batch)
	if err != nil {
		t.Fatal(err)
	}
	nb := shard.NodeBatch{Seq: 1, Ops: ops[0], Diffs: true}
	first, err := node.Apply(context.Background(), nb)
	if err != nil {
		t.Fatal(err)
	}
	redelivered, err := node.Apply(context.Background(), nb)
	if err != nil {
		t.Fatalf("redelivery rejected: %v", err)
	}
	if mustJSON(t, first) != mustJSON(t, redelivered) {
		t.Fatal("redelivery returned different diffs than the original application")
	}
	vios, err := node.Violations()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, vios), mustJSON(t, fullDetect(t, tbl, rules)); got != want {
		t.Fatalf("worker state diverged after redelivery:\n got %s\nwant %s", got, want)
	}

	// Stale (already-surpassed) sequence numbers are conflicts…
	if _, err := node.Apply(context.Background(), shard.NodeBatch{Seq: 0}); err == nil {
		t.Fatal("stale sequence accepted")
	}
	// …but skipping ahead is legal: the coordinator only sends batches
	// that touch this shard, so the worker's sequence is sparse.
	if _, err := node.Apply(context.Background(), shard.NodeBatch{Seq: 5}); err != nil {
		t.Fatalf("sparse sequence rejected: %v", err)
	}
}
