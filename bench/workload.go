// One benchmark run: set a workload up, measure it, verify it, and turn
// what was measured into the named metrics. An untraced run reports the
// end-to-end metrics; a traced run reports the per-layer metrics.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/anmat/anmat/internal/pfd"
)

// runConfig is everything a run needs besides the workload.
type runConfig struct {
	Seed    int64
	Seconds float64
	WorkDir string // scratch directory of this run, removed afterwards
	// Start brings up a target in dir. The end-to-end runs start real
	// processes; the quick smoke path starts the in-process server.
	Start func(dir string, topo topology) (target, error)
	// Quick trims the run to a smoke test: one set-up, one recovery.
	Quick bool
	// SpanFile, when set, receives the traced replay's spans.
	SpanFile string
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Counts are the sample and op counts behind the metrics.
	Counts map[string]float64 `json:"counts"`
}

func newResult(spec *workloadSpec, cfg runConfig, trace bool) *result {
	return &result{
		Workload: spec.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: trace,
		Metrics: make(map[string]float64), Counts: make(map[string]float64),
	}
}

func (r *result) absorb(o *outcome) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
}

// live is a set-up workload on a running target.
type live struct {
	dir string
	tg  target
	be  *httpBackend
	sr  *streamRun
	ur  *uploadRun
}

func bringUp(spec *workloadSpec, cfg runConfig, dir string) (*live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tg, err := cfg.Start(dir, spec.Topo)
	if err != nil {
		return nil, err
	}
	l := &live{dir: dir, tg: tg, be: newHTTPBackend(tg, spec.Clients)}
	if spec.Upload != nil {
		l.ur, err = setupUpload(spec, cfg.Seed, l.be)
	} else {
		l.sr, err = setupStream(spec, cfg.Seed, l.be, false)
	}
	if err != nil {
		tg.Close()
		return nil, err
	}
	return l, nil
}

// setUp brings the workload up in a directory of its own and reports how
// long that took.
func setUp(spec *workloadSpec, cfg runConfig, i int) (*live, float64, error) {
	t0 := time.Now()
	l, err := bringUp(spec, cfg, filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i)))
	if err != nil {
		return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
	}
	return l, time.Since(t0).Seconds(), nil
}

// runUntraced measures the end-to-end metrics of one workload: set up,
// the timed phase, its verification, then the recovery phase.
func runUntraced(spec *workloadSpec, cfg runConfig) (*result, error) {
	res := newResult(spec, cfg, false)
	groups, atLeast, atMost, groupTime := setupRepeats, recoverGroupMin, recoverGroupMax, recoverGroupTime
	if cfg.Quick {
		groups, atLeast, atMost, groupTime = 1, 1, 1, 0
	}
	l, first, err := setUp(spec, cfg, 0)
	if err != nil {
		return nil, err
	}
	defer l.tg.Close()
	setups := []float64{first}

	timed := time.Duration(cfg.Seconds * float64(time.Second))
	var out *outcome
	// kill is one kill → restart → verified cycle, the n-th of the run.
	var kill func(n int) (time.Duration, error)
	if spec.Upload != nil {
		var ups []*uploaded
		out, ups = l.ur.runFor(timed)
		res.Metrics["peak_rss_mb"] = l.tg.PeakRSSMB()
		l.ur.verify(ups, out)
		// The sessions a crash must not lose: one of each rotation slot.
		var kept []*uploaded
		ko := &outcome{}
		for range spec.Upload.Rotation {
			if up, _, ok := l.ur.cycle(ko, true); ok {
				kept = append(kept, up)
			}
		}
		l.ur.verify(kept, ko)
		out.addChecks(ko)
		reread := func(o *outcome) {
			for _, up := range kept {
				for i, want := range up.pages {
					o.Attempted++
					got, _, err := l.be.page(0, up.id, spec.Upload.PageSize, i*spec.Upload.PageSize)
					if err == nil {
						err = sameBytes(fmt.Sprintf("%s page %d after restart", up.id, i), got, want)
					}
					if err != nil {
						o.fail("%v", err)
					}
				}
			}
		}
		kill = func(int) (time.Duration, error) { return recoverOnce(l.tg, l.be, reread, out) }
	} else {
		out = l.sr.runFor(timed)
		res.Metrics["peak_rss_mb"] = l.tg.PeakRSSMB()
		bodies, sets, err := l.sr.references()
		if err != nil {
			return nil, err
		}
		l.sr.verify(bodies, out)
		out.F1 = l.sr.f1(sets)
		kill = func(n int) (time.Duration, error) {
			out.addChecks(l.sr.settle(l.be, settleTail+n*settleStep))
			bodies, _, err := l.sr.references()
			if err != nil {
				return 0, err
			}
			return recoverOnce(l.tg, l.be, func(o *outcome) { l.sr.verify(bodies, o) }, out)
		}
	}

	// The recovery phase: groups of kills with the remaining set-up
	// repeats between them (each in a directory of its own, while the
	// server under test idles), so that recover_s and setup_s are sampled
	// across several seconds of this machine's drift and not within one.
	var recovered []float64
	for g := 0; g < groups; g++ {
		if g > 0 {
			spare, s, err := setUp(spec, cfg, g)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
			spare.tg.Close()
			os.RemoveAll(spare.dir)
		}
		start := time.Now()
		for i := 0; i < atMost && (i < atLeast || time.Since(start) < groupTime) && out.Failed == 0; i++ {
			d, err := kill(len(recovered))
			if err != nil {
				return nil, err
			}
			recovered = append(recovered, d.Seconds())
		}
	}
	res.absorb(out)
	res.Correct = res.Failed == 0 && len(out.Ack) > 0 && len(out.Read) > 0 && len(recovered) > 0
	m := res.Metrics
	m["setup_s"] = median(setups)
	m["ack_p50_ms"] = median(out.Ack)
	m["ack_tail_ms"], res.Counts["ack_tail_percentile"] = tail(out.Ack)
	m["rows_per_s"] = float64(out.Rows) / out.Wall.Seconds()
	m["read_p50_ms"] = median(out.Read)
	m["read_p90_ms"] = percentile(out.Read, 90)
	m["recover_s"] = median(recovered)
	m["detect_f1"] = mean(out.F1)
	res.Counts["server_gomaxprocs"] = float64(serverMaxProcs(l.tg.URL()))
	res.Counts["ack_samples"] = float64(len(out.Ack))
	res.Counts["read_samples"] = float64(len(out.Read))
	res.Counts["rows"] = float64(out.Rows)
	res.Counts["timed_wall_s"] = out.Wall.Seconds()
	res.Counts["recoveries"] = float64(len(recovered))
	return res, nil
}

// pacedProbe runs the script open-loop: each client's ops fall due at a
// fixed interval whatever the server does, a request is timed from when
// it was due (so a stall counts against every request queued behind it),
// and how late the generator sent each request is reported beside it.
// The session's single ordered writer still waits for its ack, which is
// why this view is reported under loadgen and not gated.
func pacedProbe(sr *streamRun, opsPerSec float64, d time.Duration) (ack, late []float64, o *outcome) {
	interval := time.Duration(float64(sr.spec.Clients) / opsPerSec * float64(time.Second))
	n := int(d / interval)
	acks := make([][]float64, sr.spec.Clients)
	lates := make([][]float64, sr.spec.Clients)
	parts := make([]*outcome, sr.spec.Clients)
	sr.each(func(c int) {
		parts[c] = &outcome{}
		start := time.Now()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			op := sr.gens[c].next()
			if !sr.exec(c, op, parts[c]) {
				return
			}
			lates[c] = append(lates[c], ms(sent.Sub(due)))
			if op.Body != nil {
				acks[c] = append(acks[c], ms(time.Since(due)))
			}
		}
	})
	o = &outcome{}
	for c := range parts {
		o.merge(parts[c])
		ack = append(ack, acks[c]...)
		late = append(late, lates[c]...)
	}
	return ack, late, o
}

// replayed is one in-process replay of the script.
type replayed struct {
	out  *outcome
	wall time.Duration // the op loop alone
	sets map[string][]pfd.Violation
}

// replayHooks let a caller act between a replay's phases: once the
// sessions exist (ids names them), and once the op loop has ended, before
// the closing verification issues its own requests.
type replayHooks struct {
	afterSetup func(ids []string) error
	afterLoop  func(ids []string) error
}

// replay runs the script's first executed[c] ops per client against an
// in-process backend on one goroutine, then verifies it like any run.
func replay(spec *workloadSpec, cfg runConfig, be backend, executed []int, hooks replayHooks) (*replayed, error) {
	if hooks.afterSetup == nil {
		hooks.afterSetup = func([]string) error { return nil }
	}
	if hooks.afterLoop == nil {
		hooks.afterLoop = func([]string) error { return nil }
	}
	if spec.Upload != nil {
		ur, err := setupUpload(spec, cfg.Seed, be)
		if err != nil {
			return nil, err
		}
		if err := hooks.afterSetup(nil); err != nil {
			return nil, err
		}
		o := &outcome{}
		var ups []*uploaded
		var kept []string
		t0 := time.Now()
		for i := 0; i < executed[0]; i++ {
			// The last rotation's sessions stay, so that what is left on
			// disk afterwards is a store worth reopening.
			keep := i >= executed[0]-len(spec.Upload.Rotation)
			up, _, ok := ur.cycle(o, keep)
			if !ok {
				break
			}
			ups = append(ups, up)
			if keep {
				kept = append(kept, up.id)
			}
		}
		wall := time.Since(t0)
		if err := hooks.afterLoop(kept); err != nil {
			return nil, err
		}
		ur.verify(ups, o)
		return &replayed{out: o, wall: wall}, nil
	}
	sr, err := setupStream(spec, cfg.Seed, be, true)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, cs := range sr.sessions {
		for _, ls := range cs {
			ids = append(ids, ls.id)
		}
	}
	if err := hooks.afterSetup(ids); err != nil {
		return nil, err
	}
	t0 := time.Now()
	o := sr.runOps(executed)
	wall := time.Since(t0)
	if err := hooks.afterLoop(ids); err != nil {
		return nil, err
	}
	bodies, sets, err := sr.references()
	if err != nil {
		return nil, err
	}
	sr.verify(bodies, o)
	return &replayed{out: o, wall: wall, sets: sets}, nil
}

// scriptClasses are the request classes of a workload's script, as the
// handler timer and the span roots name them.
func scriptClasses(spec *workloadSpec) (handler []string, roots map[string][]string) {
	if spec.Upload != nil {
		return []string{"upload", "page", "drop"},
			map[string][]string{"upload": {"upload"}, "read": {string(opPage)}, "persist.drop": {"drop"}}
	}
	return []string{"deltas", "since", "page"},
		map[string][]string{"delta": writeKinds, "read": {string(opSince), string(opPage)}}
}

var writeKinds = []string{string(opAppend), string(opUpdate), string(opDelete)}

// aggOver sums an aggregate over op kinds.
func aggOver(agg map[spanKey]*spanAgg, name string, kinds []string) spanAgg {
	var out spanAgg
	for _, k := range kinds {
		if a := agg[spanKey{name, k}]; a != nil {
			out.Count += a.Count
			out.Total += a.Total
			out.Self += a.Self
		}
	}
	return out
}

func perUS(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

func perMS(ns int64, n int) float64 { return perUS(ns, n) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics of one workload: a shorter
// untraced HTTP run for the counts the server keeps itself, then the
// same script replayed in-process under the span recorder, through the
// real handler behind a timer, and (for the cluster workload) through
// the shard and cluster seams.
func runTraced(spec *workloadSpec, cfg runConfig) (*result, error) {
	res := newResult(spec, cfg, true)
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	executed, err := tracedHTTP(spec, cfg, res)
	if err != nil {
		return nil, err
	}
	lay, rec, err := tracedLayers(spec, cfg, executed, res)
	if err != nil {
		return nil, err
	}
	htg, err := tracedHandler(spec, cfg, executed, aggregate(rec.spans), res)
	if err != nil {
		return nil, err
	}
	defer htg.Close() // its shard workers serve the cluster seams below
	if spec.Topo.Workers > 0 {
		if err := shardLayers(spec, cfg, executed, lay.anyRules(), htg.wurls, res.Metrics); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedHTTP is the traced run's first phase: half the time, untraced,
// over HTTP against the real target. It yields the counts the server
// keeps itself (as /metrics deltas), the paced probe, and how many ops
// of its script each client got through, which the replays repeat.
func tracedHTTP(spec *workloadSpec, cfg runConfig, res *result) (executed []int, err error) {
	m := res.Metrics
	l, err := bringUp(spec, cfg, filepath.Join(cfg.WorkDir, "http"))
	if err != nil {
		return nil, err
	}
	defer l.tg.Close()
	before, err := scrape(l.tg)
	if err != nil {
		return nil, err
	}
	timed := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	var out *outcome
	if spec.Upload != nil {
		var ups []*uploaded
		out, ups = l.ur.runFor(timed)
		l.ur.verify(ups, out)
	} else {
		out = l.sr.runFor(timed)
	}
	after, err := scrape(l.tg)
	if err != nil {
		return nil, err
	}
	res.absorb(out)
	ops := len(out.Ack) + len(out.Read)
	if spec.Upload == nil {
		if !cfg.Quick {
			rate := 0.4 * float64(ops) / out.Wall.Seconds()
			ack, late, po := pacedProbe(l.sr, rate, timed/2)
			res.absorb(po)
			m["loadgen.paced_ack_p50_ms"] = median(ack)
			m["loadgen.paced_ack_p99_ms"] = percentile(ack, 99)
			m["loadgen.late_p99_ms"] = percentile(late, 99)
			res.Counts["paced_ops_per_s"] = rate
			res.Counts["paced_samples"] = float64(len(late))
		}
		bodies, _, err := l.sr.references()
		if err != nil {
			return nil, err
		}
		vo := &outcome{}
		l.sr.verify(bodies, vo)
		res.absorb(vo)
	}

	d := func(name string) float64 { return delta(after, before, name) }
	batches := d("anmat_wal_group_commit_batches_total")
	fsyncs := d("anmat_wal_group_commit_fsyncs_total")
	walBytes := d("anmat_persist_wal_bytes_total")
	ckptBytes := d("anmat_persist_checkpoint_size_bytes_sum")
	clusterBytes := d("anmat_cluster_wal_bytes_total")
	m["persist.journal_bytes_per_batch"] = ratio(walBytes, batches)
	m["persist.fsyncs_per_batch"] = ratio(fsyncs, batches)
	m["persist.batches_per_fsync"] = ratio(batches, fsyncs)
	m["persist.checkpoints"] = d("anmat_persist_checkpoints_total")
	m["persist.checkpoint_bytes"] = ratio(ckptBytes, d("anmat_persist_checkpoint_size_bytes_count"))
	m["persist.durable_bytes_per_row"] = ratio(walBytes+ckptBytes+clusterBytes, float64(out.Rows))
	m["cluster.wal_bytes_per_batch"] = ratio(clusterBytes, batches)
	m["cluster.retries"] = d("anmat_cluster_retries_total")
	m["obs.spans_per_request"] = ratio(d("anmat_span_duration_seconds_count"), d("anmat_http_requests_total"))
	m["server.req_bytes"] = ratio(float64(out.ReqBytes), float64(len(out.Ack)))
	m["server.resp_bytes"] = ratio(float64(out.RespSize), float64(ops))
	m["loadgen.read_tail_ms"], res.Counts["read_tail_percentile"] = tail(out.Read)
	res.Counts["http_ops"] = float64(ops)
	res.Counts["http_ack_p50_ms"] = median(out.Ack)
	return out.Executed, nil
}

// tracedLayers is the layered replay: the script prefix under the span
// recorder, and once more with the recorder off, which is what the
// tracing itself costs.
func tracedLayers(spec *workloadSpec, cfg runConfig, executed []int, res *result) (*layered, *recorder, error) {
	m := res.Metrics
	rec := newRecorder()
	lay, err := newLayered(filepath.Join(cfg.WorkDir, "layered"), spec.Topo, rec)
	if err != nil {
		return nil, nil, err
	}
	defer lay.close()
	if spec.Upload == nil {
		lay.phase = "setup"
	}
	traced, err := replay(spec, cfg, lay, executed, replayHooks{
		afterSetup: func(ids []string) error {
			for _, id := range ids {
				if err := lay.dmvCost(id); err != nil {
					return err
				}
				if err := lay.bootstrapCost(id); err != nil {
					return err
				}
			}
			lay.phase = ""
			return nil
		},
		afterLoop: func(ids []string) error {
			lay.phase = "verify"
			if spec.Upload == nil {
				return nil
			}
			for _, id := range ids {
				if err := lay.dmvCost(id); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("layered replay: %w", err)
	}
	res.absorb(traced.out)
	lay.close()
	if cfg.SpanFile != "" {
		if err := writeSpans(cfg.SpanFile, rec.spans); err != nil {
			return nil, nil, err
		}
	}
	if !cfg.Quick {
		off := newRecorder()
		off.off = true
		bare, err := newLayered(filepath.Join(cfg.WorkDir, "layered-off"), spec.Topo, off)
		if err != nil {
			return nil, nil, err
		}
		untraced, err := replay(spec, cfg, bare, executed, replayHooks{})
		bare.close()
		if err != nil {
			return nil, nil, fmt.Errorf("layered replay, recorder off: %w", err)
		}
		res.absorb(untraced.out)
		m["loadgen.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), untraced.wall.Seconds())
	}

	agg := aggregate(rec.spans)
	all := func(name string) spanAgg {
		if a := agg[spanKey{name, ""}]; a != nil {
			return *a
		}
		return spanAgg{}
	}
	writes := aggOver(agg, "delta", writeKinds)
	uploads := all("upload")
	m["server.decode_us"] = perUS(aggOver(agg, "server.decode", writeKinds).Self, writes.Count)
	encode := aggOver(agg, "server.encode", append([]string{string(opSince), string(opPage), "upload"}, writeKinds...))
	m["server.encode_us"] = perUS(encode.Self, encode.Count)
	readCSV := all("table.read_csv")
	m["table.read_csv_ms"] = perMS(readCSV.Total, readCSV.Count)
	m["table.read_csv_rows_per_s"] = ratio(float64(lay.detectRows), float64(readCSV.Total)/1e9)
	encBin := all("table.encode_bin")
	m["table.encode_bin_ms"] = perMS(encBin.Total, encBin.Count)
	m["profile.run_ms"] = perMS(all("profile").Total, uploads.Count)
	m["dmv.run_ms"] = perMS(all("dmv").Total, all("dmv").Count)
	m["discovery.run_ms"] = perMS(all("discovery").Total, uploads.Count)
	m["discovery.pfds"] = ratio(float64(lay.pfds), float64(uploads.Count))
	m["detect.run_ms"] = perMS(all("detect").Total, uploads.Count)
	m["detect.rows_per_s"] = ratio(float64(lay.detectRows), float64(all("detect").Total)/1e9)
	m["detect.allocs_per_row"] = ratio(float64(lay.detectAllocs), float64(lay.detectRows))
	m["detect.repairs_ms"] = perMS(all("detect.repairs").Total, uploads.Count)
	m["detect.violations"] = ratio(float64(lay.violations), float64(uploads.Count))
	m["stream.bootstrap_ms"] = mean(lay.bootstrap)
	if spec.Topo.Workers == 0 {
		for _, k := range writeKinds {
			a := aggOver(agg, "core.apply", []string{k})
			m["stream.apply_"+k+"_us"] = perUS(a.Self, a.Count)
		}
		m["stream.apply_allocs_per_op"] = ratio(float64(lay.applyAllocs), float64(lay.applyOps))
		m["stream.apply_bytes_per_op"] = ratio(float64(lay.applyBytes), float64(lay.applyOps))
	} else {
		apply := aggOver(agg, "core.apply", writeKinds)
		m["cluster.apply_us"] = perUS(apply.Self, apply.Count)
	}
	since := aggOver(agg, "stream.since", []string{string(opSince)})
	m["stream.since_us"] = perUS(since.Self, since.Count)
	m["stream.diff_changes_per_batch"] = ratio(float64(traced.out.Changes), float64(writes.Count))
	for _, vs := range traced.sets {
		m["stream.violations"] += float64(len(vs))
	}
	journal := aggOver(agg, "persist.journal", writeKinds)
	m["persist.journal_us"] = perUS(journal.Total, journal.Count)
	ckpt := all("persist.checkpoint")
	m["persist.checkpoint_ms"] = perMS(ckpt.Total, ckpt.Count)
	m["wal.encode_us"] = perUS(int64(lay.walEncode), lay.walEncodes)
	m["obs.span_ns"], m["obs.span_allocs"] = obsSpanCost()
	res.Counts["layered_checkpoints"] = float64(ckpt.Count)
	res.Counts["layered_writes"] = float64(writes.Count)
	return lay, rec, nil
}

// tracedHandler runs the script prefix through the real server.Handler()
// on an in-process listener behind the handler timer, compares it with
// the layered replay, and then reopens the data directory it left the
// way a restart does. The target it returns has its API server stopped
// and its shard workers still serving; the caller closes it.
func tracedHandler(spec *workloadSpec, cfg runConfig, executed []int, agg map[spanKey]*spanAgg, res *result) (*inprocTarget, error) {
	m := res.Metrics
	ht := &handlerTimer{}
	hdir := filepath.Join(cfg.WorkDir, "handler")
	if err := os.MkdirAll(hdir, 0o755); err != nil {
		return nil, err
	}
	htg, err := startInproc(hdir, spec.Topo, true, ht.wrap)
	if err != nil {
		return nil, err
	}
	// Only the script's own requests are timed: not set-up, not the
	// closing verification.
	hr, err := replay(spec, cfg, newHTTPBackend(htg, spec.Clients), executed, replayHooks{
		afterSetup: func([]string) error { ht.enable(true); return nil },
		afterLoop:  func([]string) error { ht.enable(false); return nil },
	})
	if err != nil {
		htg.Close()
		return nil, fmt.Errorf("handler replay: %w", err)
	}
	res.absorb(hr.out)
	classes, roots := scriptClasses(spec)
	handled := ht.all(classes...)
	m["server.handler_us"] = mean(handled)
	var layeredNS int64
	var layeredN int
	for root, kinds := range roots {
		a := aggOver(agg, root, kinds)
		layeredNS += a.Total
		layeredN += a.Count
	}
	m["server.other_us"] = mean(handled) - perUS(layeredNS, layeredN)
	// Client-observed minus handler time, over the requests both sides
	// timed (the client does not time deletes).
	timedBoth := handled
	if spec.Upload != nil {
		timedBoth = ht.all("upload", "page")
	}
	clientUS := mean(append(append([]float64(nil), hr.out.Ack...), hr.out.Read...)) * 1e3
	m["loadgen.http_overhead_us"] = clientUS - mean(timedBoth)
	for _, c := range classes {
		res.Counts["handler_"+c+"_us"] = mean(ht.all(c))
	}
	res.Counts["handler_requests"] = float64(len(handled))
	res.Counts["layered_requests"] = float64(layeredN)
	res.Counts["layered_us_per_request"] = perUS(layeredNS, layeredN)
	if err := htg.Crash(); err != nil {
		htg.Close()
		return nil, err
	}
	clusterDir := ""
	if spec.Topo.Workers > 0 {
		clusterDir = filepath.Join(hdir, "cluster")
	}
	var storeBytes int64
	if m["docstore.open_ms"], m["persist.restore_ms"], storeBytes, err = restoreCost(htg.DataDir(), htg.wurls, clusterDir); err != nil {
		htg.Close()
		return nil, fmt.Errorf("restore cost: %w", err)
	}
	m["docstore.store_bytes"] = float64(storeBytes)
	return htg, nil
}

// shardLayers replays a one-session script's writes through K=2
// LocalNodes (the shard layer by itself) and through RemoteNodes plus a
// cluster.Store (what the cluster layer adds).
func shardLayers(spec *workloadSpec, cfg runConfig, executed []int, rules []*pfd.PFD, workers []string, m map[string]float64) error {
	script := func() (*model, []byte, []scriptOp, error) {
		models, csvs, gens, err := streamInputs(spec, cfg.Seed)
		if err != nil {
			return nil, nil, nil, err
		}
		mod := models[0][0]
		ops := []scriptOp{warmup(mod)}
		ops[0].Kind = "setup"
		for i := 0; i < executed[0]; i++ {
			ops = append(ops, gens[0].next())
		}
		return mod, csvs[0][0], ops, nil
	}
	mod, csv, ops, err := script()
	if err != nil {
		return err
	}
	local, err := replayShards("", mod, csv, rules, ops, nil)
	if err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	m["shard.boot_ms"] = local.BootMS
	m["shard.rows_max_over_mean"] = local.RowsMaxOverMean
	m["shard.apply_us"], m["shard.node_apply_us"], m["shard.node_max_over_mean"], m["shard.coord_self_us"], m["shard.nodes_per_batch"] =
		nodeStats(local.Spans, "shard.apply", "shard.node.apply")

	if mod, csv, ops, err = script(); err != nil {
		return err
	}
	rdir := filepath.Join(cfg.WorkDir, "shard-remote")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	remote, err := replayShards(rdir, mod, csv, rules, ops, workers)
	if err != nil {
		return fmt.Errorf("cluster replay: %w", err)
	}
	_, m["cluster.rpc_us"], _, _, _ = nodeStats(remote.Spans, "shard.apply", "cluster.rpc")
	app := aggOver(aggregate(remote.Spans), "cluster.store_append", writeKinds)
	m["cluster.store_append_us"] = perUS(app.Total, app.Count)
	return nil
}
