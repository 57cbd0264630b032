// The traced replay: the same script, run inside the bench process by
// one goroutine, with a span around every call into a layer. The seams
// are the ones the packages already export — core.Persister around
// *persist.Manager, Session.RunStages one stage at a time,
// shard.Config.NewNode and Config.Journal, an http.Handler wrapper —
// so no file outside bench/ carries a span for it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/wal"
)

// heapAllocs reads the cumulative heap allocation counters (objects,
// bytes) without stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// timingPersister is the core.Persister seam: it forwards to the real
// manager inside persist.* spans. core asks CompactionDue right after
// the engine has applied a batch and calls Checkpoint once it has
// encoded the snapshot, so the interval between the two is the table
// encode and is recorded as table.encode_bin.
type timingPersister struct {
	rec         *recorder
	pm          *persist.Manager
	dueAt       int64 // recorder clock when a snapshot started; -1 = none pending
	checkpoints int
}

func (p *timingPersister) Journal(ctx context.Context, id string, seq int64, b stream.Batch) error {
	s := p.rec.begin("persist.journal")
	defer p.rec.end(s)
	return p.pm.Journal(ctx, id, seq, b)
}

func (p *timingPersister) JournalSharded(ctx context.Context, id string, k int, seq int64, b stream.Batch) error {
	s := p.rec.begin("persist.journal")
	defer p.rec.end(s)
	return p.pm.JournalSharded(ctx, id, k, seq, b)
}

func (p *timingPersister) CompactionDue(id string) bool {
	due := p.pm.CompactionDue(id)
	if due {
		p.dueAt = p.rec.now()
	}
	return due
}

func (p *timingPersister) Checkpoint(snap *core.SessionSnapshot) error {
	if p.dueAt >= 0 {
		p.rec.add("table.encode_bin", p.dueAt, p.rec.now())
		p.dueAt = -1
	}
	p.checkpoints++
	s := p.rec.begin("persist.checkpoint")
	defer p.rec.end(s)
	return p.pm.Checkpoint(snap)
}

// stageSpans names the layer each pipeline stage belongs to.
var stageSpans = map[core.Stage]string{
	core.StageProfile:   "profile",
	core.StageDiscovery: "discovery",
	core.StageConfirm:   "core.confirm",
	core.StageDetection: "detect",
	core.StageRepairs:   "detect.repairs",
}

// layered is the backend of the traced replay.
type layered struct {
	rec  *recorder
	sys  *core.System
	pm   *persist.Manager
	tp   *timingPersister
	sess map[string]*core.Session

	workers []*http.Server

	// phase, when set, labels every span instead of the op kind: the
	// requests of set-up and of the closing verification are recorded but
	// kept out of the per-op means.
	phase string

	// Accumulators for metrics that are not span times.
	detectAllocs, detectRows uint64
	applyAllocs, applyBytes  uint64
	applyOps                 int
	walEncode                time.Duration
	walEncodes               int
	bootstrap                []float64 // ms
	pfds, violations         int
}

func newLayered(dir string, topo topology, rec *recorder) (*layered, error) {
	l := &layered{rec: rec, sess: make(map[string]*core.Session)}
	cfg := core.DefaultSystemConfig()
	for s := 0; s < topo.Workers; s++ {
		w := cluster.NewWorker(s, topo.Workers)
		w.SetLogf(nil)
		srv, url, err := serve(w.Handler())
		if err != nil {
			l.close()
			return nil, err
		}
		l.workers = append(l.workers, srv)
		cfg.Workers = append(cfg.Workers, url)
	}
	if topo.Workers > 0 {
		cfg.ClusterDir = filepath.Join(dir, "cluster")
	}
	pm, err := persist.Open(filepath.Join(dir, "data"), persist.Options{Fsync: true})
	if err != nil {
		l.close()
		return nil, err
	}
	l.pm = pm
	l.tp = &timingPersister{rec: rec, pm: pm, dueAt: -1}
	l.sys = core.NewSystemWith(docstore.NewMem(), cfg)
	return l, nil
}

// label sets the recorder's op label for the spans that follow.
func (l *layered) label(op string) {
	if l.phase != "" {
		op = l.phase
	}
	l.rec.setOp(op)
}

func (l *layered) close() {
	if l.pm != nil {
		_ = l.pm.Close()
	}
	for _, w := range l.workers {
		_ = w.Close()
	}
}

func (l *layered) create(c int, name string, csv []byte) (string, int, time.Duration, error) {
	ctx := context.Background()
	l.label("upload")
	t0 := time.Now()
	root := l.rec.begin("upload")
	defer l.rec.end(root)
	s := l.rec.begin("table.read_csv")
	t, err := table.ReadCSV(name, bytes.NewReader(csv))
	l.rec.end(s)
	if err != nil {
		return "", 0, 0, err
	}
	sess := l.sys.NewSession("default", t, l.sys.Defaults())
	for _, st := range core.FullPipeline() {
		var a0 uint64
		if st == core.StageDetection {
			a0, _ = heapAllocs()
		}
		s := l.rec.begin(stageSpans[st])
		err := sess.RunStages(ctx, st)
		l.rec.end(s)
		if err != nil {
			return "", 0, 0, err
		}
		if st == core.StageDetection {
			a1, _ := heapAllocs()
			l.detectAllocs += a1 - a0
			l.detectRows += uint64(t.NumRows())
		}
	}
	sess.SetPersist(l.tp)
	l.tp.dueAt = l.rec.now()
	if err := sess.Checkpoint(); err != nil {
		return "", 0, 0, err
	}
	s = l.rec.begin("server.encode")
	indentJSON(map[string]any{
		"session":    sess.ID,
		"table":      t.Name(),
		"rows":       t.NumRows(),
		"pfds":       len(sess.Discovered),
		"violations": len(sess.Violations),
	})
	l.rec.end(s)
	l.sess[sess.ID] = sess
	l.pfds += len(sess.Discovered)
	l.violations += len(sess.Violations)
	return sess.ID, len(sess.Violations), time.Since(t0), nil
}

// dmvCost times the DMV scan, which an upload does not run but the layer
// table lists.
func (l *layered) dmvCost(id string) error {
	l.rec.setOp("dmv")
	s := l.rec.begin("dmv")
	err := l.sess[id].RunStages(context.Background(), core.StageDMV)
	l.rec.end(s)
	return err
}

// bootstrapCost times a bare incremental-engine bootstrap over the
// session's table as uploaded.
func (l *layered) bootstrapCost(id string) error {
	sess := l.sess[id]
	t0 := time.Now()
	if _, err := stream.NewEngineFrom(sess.Table, sess.Discovered, 0); err != nil {
		return err
	}
	l.bootstrap = append(l.bootstrap, ms(time.Since(t0)))
	return nil
}

// anyRules returns the rule set of a session the replay created (the
// one session of a one-session workload).
func (l *layered) anyRules() []*pfd.PFD {
	for _, s := range l.sess {
		return s.Discovered
	}
	return nil
}

func (l *layered) rules(c int, id string) ([]*pfd.PFD, error) {
	return l.sess[id].Discovered, nil
}

func (l *layered) deltas(c int, id string, op scriptOp) ([]byte, time.Duration, error) {
	sess := l.sess[id]
	l.label(string(op.Kind))
	t0 := time.Now()
	root := l.rec.begin("delta")
	s := l.rec.begin("server.decode")
	var body struct {
		Deltas stream.Batch `json:"deltas"`
	}
	err := json.NewDecoder(bytes.NewReader(op.Body)).Decode(&body)
	l.rec.end(s)
	if err != nil {
		l.rec.end(root)
		return nil, 0, err
	}
	ckpt := l.tp.checkpoints
	a0, b0 := heapAllocs()
	s = l.rec.begin("core.apply")
	diff, err := sess.ApplyDeltasCtx(context.Background(), body.Deltas)
	l.rec.end(s)
	a1, b1 := heapAllocs()
	if err != nil {
		l.rec.end(root)
		return nil, 0, err
	}
	if l.phase == "" && l.tp.checkpoints == ckpt {
		l.applyAllocs += a1 - a0
		l.applyBytes += b1 - b0
		l.applyOps++
	}
	s = l.rec.begin("server.encode")
	out := diffBody(id, diff, deltaPageLimit, 0)
	l.rec.end(s)
	l.rec.end(root)
	d := time.Since(t0)
	// Outside the request: what encoding this batch as a WAL record costs
	// on its own (the journal span holds it together with the write and
	// the fsync).
	w0 := time.Now()
	if _, err := wal.Encode(wal.Record{Seq: diff.Seq, Batch: body.Deltas}); err == nil {
		l.walEncode += time.Since(w0)
		l.walEncodes++
	}
	return out, d, nil
}

func (l *layered) since(c int, id string, cursor int64) ([]byte, time.Duration, error) {
	sess := l.sess[id]
	l.label(string(opSince))
	t0 := time.Now()
	root := l.rec.begin("read")
	defer l.rec.end(root)
	s := l.rec.begin("stream.since")
	eng, err := sess.Stream()
	var diff *stream.Diff
	if err == nil {
		diff, err = eng.Since(cursor)
	}
	l.rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = l.rec.begin("server.encode")
	out := diffBody(id, diff, 0, 0)
	l.rec.end(s)
	return out, time.Since(t0), nil
}

func (l *layered) page(c int, id string, limit, offset int) ([]byte, time.Duration, error) {
	sess := l.sess[id]
	l.label(string(opPage))
	t0 := time.Now()
	root := l.rec.begin("read")
	defer l.rec.end(root)
	s := l.rec.begin("server.encode")
	out := violationsBody(id, sess.Violations, limit, offset)
	l.rec.end(s)
	return out, time.Since(t0), nil
}

func (l *layered) drop(c int, id string) (time.Duration, error) {
	l.label("drop")
	t0 := time.Now()
	s := l.rec.begin("persist.drop")
	l.sess[id].SetPersist(nil)
	err := l.pm.Drop(id)
	l.rec.end(s)
	delete(l.sess, id)
	return time.Since(t0), err
}

// handlerTimer is the http.Handler seam: it times the real
// server.Handler() per request class while enabled.
type handlerTimer struct {
	mu      sync.Mutex
	enabled bool
	us      map[string][]float64
}

func requestClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/deltas"):
		return "deltas"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/violations"):
		if r.URL.Query().Has("since") {
			return "since"
		}
		return "page"
	case r.Method == http.MethodPost && p == "/api/v1/sessions":
		return "upload"
	case r.Method == http.MethodDelete:
		return "drop"
	}
	return "other"
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.mu.Lock()
		if h.enabled {
			if h.us == nil {
				h.us = make(map[string][]float64)
			}
			c := requestClass(r)
			h.us[c] = append(h.us[c], float64(d)/float64(time.Microsecond))
		}
		h.mu.Unlock()
	})
}

func (h *handlerTimer) enable(on bool) {
	h.mu.Lock()
	h.enabled = on
	h.mu.Unlock()
}

func (h *handlerTimer) all(classes ...string) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []float64
	for _, c := range classes {
		out = append(out, h.us[c]...)
	}
	return out
}

// timingNode is the shard.Config.NewNode seam: one shard node behind a
// span per Apply. The coordinator calls nodes from fan-out goroutines
// while the replay goroutine waits inside the coordinator's apply span,
// so that span is the parent.
type timingNode struct {
	shard.Node
	rec  *recorder
	name string
}

func (n *timingNode) Apply(ctx context.Context, nb shard.NodeBatch) ([]*stream.Diff, error) {
	s := n.rec.beginUnder(n.rec.top(), n.name)
	defer n.rec.end(s)
	return n.Node.Apply(ctx, nb)
}

// shardReplay is the result of replaying a script's writes through a
// K=2 shard coordinator built directly on the shard package's seams.
type shardReplay struct {
	BootMS          float64
	RowsMaxOverMean float64
	Spans           []span
}

// replayShards runs the writes of a one-session script through
// shard.NewWith with K=2. With workers == nil the nodes are in-process
// LocalNodes (the shard layer alone); otherwise they are
// cluster.RemoteNodes to the given workers and every batch is first
// appended to a cluster.Store, which is what cluster.New assembles.
func replayShards(dir string, m *model, csv []byte, rules []*pfd.PFD, ops []scriptOp, workers []string) (*shardReplay, error) {
	const k = 2
	t, err := table.ReadCSV(m.name, bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	nodeSpan := "shard.node.apply"
	cfg := shard.Config{}
	var store *cluster.Store
	if workers != nil {
		nodeSpan = "cluster.rpc"
		if store, err = cluster.CreateStore(dir, t, rules, k, 0, false); err != nil {
			return nil, err
		}
		defer store.Close()
		cfg.Journal = func(ctx context.Context, seq int64, b stream.Batch) error {
			s := rec.begin("cluster.store_append")
			defer rec.end(s)
			return store.Append(ctx, seq, b)
		}
	}
	cfg.NewNode = func(s int, boot shard.NodeBoot, rules []*pfd.PFD) (shard.Node, error) {
		var node shard.Node
		if workers == nil {
			n, err := shard.NewLocalNode(boot, rules)
			if err != nil {
				return nil, err
			}
			node = n
		} else {
			n := cluster.NewRemoteNode(workers[s], cluster.ClientOptions{Epoch: "bench-replay"})
			if err := n.Init(boot, rules, 0); err != nil {
				return nil, err
			}
			node = n
		}
		return &timingNode{Node: node, rec: rec, name: nodeSpan}, nil
	}
	t0 := time.Now()
	co, err := shard.NewWith(t, rules, k, cfg)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	out := &shardReplay{BootMS: ms(time.Since(t0))}
	for _, op := range ops {
		if op.batch == nil {
			continue
		}
		rec.setOp(string(op.Kind))
		s := rec.begin("shard.apply")
		_, err := co.ApplyCtx(context.Background(), op.batch)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	want, err := refViolations(m, rules)
	if err != nil {
		return nil, err
	}
	if err := sameBytes("K=2 coordinator vs full detection", violationsBody("", co.Violations(), 0, 0), violationsBody("", want, 0, 0)); err != nil {
		return nil, err
	}
	st := co.Stats()
	var maxRows, sumRows float64
	for _, ps := range st.PerShard {
		sumRows += float64(ps.Rows)
		if float64(ps.Rows) > maxRows {
			maxRows = float64(ps.Rows)
		}
	}
	if sumRows > 0 {
		out.RowsMaxOverMean = maxRows / (sumRows / float64(len(st.PerShard)))
	}
	out.Spans = rec.spans
	return out, nil
}

// nodeStats summarizes the per-batch fan-out of a shard replay: mean
// node span, mean over batches of the slowest node, and the mean time
// the coordinator spent outside its slowest node.
func nodeStats(spans []span, parentName, nodeName string) (applyUS, nodeUS, maxOverMean, coordSelfUS, nodesPerBatch float64) {
	slowest := make(map[int]int64)
	var nodeTotal int64
	var nodes int
	for _, s := range spans {
		if s.Name != nodeName {
			continue
		}
		nodes++
		nodeTotal += s.dur()
		if s.dur() > slowest[s.Parent] {
			slowest[s.Parent] = s.dur()
		}
	}
	var applyTotal, slowTotal int64
	var batches int
	for _, s := range spans {
		if s.Name != parentName || s.Op == "setup" {
			continue
		}
		batches++
		applyTotal += s.dur()
		slowTotal += slowest[s.ID]
	}
	if batches == 0 || nodes == 0 {
		return
	}
	us := func(ns int64, n int) float64 { return float64(ns) / float64(n) / 1e3 }
	applyUS = us(applyTotal, batches)
	nodeUS = us(nodeTotal, nodes)
	maxOverMean = us(slowTotal, batches) / nodeUS
	coordSelfUS = us(applyTotal-slowTotal, batches)
	nodesPerBatch = float64(nodes) / float64(batches)
	return
}

// obsSpanCost measures what one obs.Span start/end pair costs.
func obsSpanCost() (ns, allocs float64) {
	const n = 20000
	ctx := context.Background()
	name := "stream.apply" // a registered span name; this process's histograms are never read
	for i := 0; i < 1000; i++ {
		obs.Span(ctx, name)()
	}
	a0, _ := heapAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		obs.Span(ctx, name)()
	}
	d := time.Since(t0)
	a1, _ := heapAllocs()
	return float64(d) / n, float64(a1-a0) / n
}

// restoreCost times reopening a data directory the way a restarted
// server does: the document store load, then persist.Restore.
func restoreCost(dataDir string, workers []string, clusterDir string) (openMS, restoreMS float64, storeBytes int64, err error) {
	path := filepath.Join(dataDir, "store.json")
	if fi, err := os.Stat(path); err == nil {
		storeBytes = fi.Size()
	}
	t0 := time.Now()
	if _, err := docstore.OpenWith(path, docstore.Options{Fsync: true}); err != nil {
		return 0, 0, 0, err
	}
	openMS = ms(time.Since(t0))
	pm, err := persist.Open(dataDir, persist.Options{Fsync: true})
	if err != nil {
		return 0, 0, 0, err
	}
	defer pm.Close()
	cfg := core.DefaultSystemConfig()
	cfg.Workers = workers
	cfg.ClusterDir = clusterDir
	sys := core.NewSystemWith(docstore.NewMem(), cfg)
	t0 = time.Now()
	if _, err := pm.Restore(sys); err != nil {
		return 0, 0, 0, err
	}
	return openMS, ms(time.Since(t0)), storeBytes, nil
}
