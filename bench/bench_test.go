package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	panic("no workload " + name)
}

// script generates a workload's inputs and the first n ops of every
// client, serialized.
func script(t *testing.T, spec *workloadSpec, seed int64, n int) (csvs [][][]byte, ops []byte) {
	t.Helper()
	_, csvs, gens, err := streamInputs(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]scriptOp
	for _, g := range gens {
		var one []scriptOp
		for i := 0; i < n; i++ {
			one = append(one, g.next())
		}
		all = append(all, one)
	}
	ops, err = json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return csvs, ops
}

func TestSeedAloneFixesInputs(t *testing.T) {
	for _, w := range workloads {
		if w.Upload != nil {
			continue
		}
		spec := w.scaled(0.05)
		csvA, opsA := script(t, &spec, 42, 300)
		csvB, opsB := script(t, &spec, 42, 300)
		if !reflect.DeepEqual(csvA, csvB) {
			t.Errorf("%s: the same seed generated different CSVs", w.Name)
		}
		if !bytes.Equal(opsA, opsB) {
			t.Errorf("%s: the same seed generated different op scripts", w.Name)
		}
		csvC, opsC := script(t, &spec, 43, 300)
		if reflect.DeepEqual(csvA, csvC) || bytes.Equal(opsA, opsC) {
			t.Errorf("%s: another seed generated the same inputs", w.Name)
		}
	}
	up := workloadByName("upload_discover").scaled(0.05)
	a, err := setupUpload(&up, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := setupUpload(&up, 42, nil)
	for i := range a.pool {
		if !bytes.Equal(a.pool[i].csv, b.pool[i].csv) || !reflect.DeepEqual(a.pool[i].truth, b.pool[i].truth) {
			t.Errorf("upload table %d differs between two generations from one seed", i)
		}
	}
}

// TestScriptStaysInRange replays a long mixed script (bulk appends,
// update batches, renumbering deletes) against a real table: every batch
// must validate against the table as it stands, and the model the
// verifiers use must end up holding exactly the table's rows.
func TestScriptStaysInRange(t *testing.T) {
	spec := workloadByName("stream_mixed").scaled(0.03)
	models, csvs, gens, err := streamInputs(&spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for c, g := range gens {
		tables := make([]*table.Table, len(models[c]))
		for i, m := range models[c] {
			if tables[i], err = table.ReadCSV(m.name, bytes.NewReader(csvs[c][i])); err != nil {
				t.Fatal(err)
			}
		}
		kinds := map[opKind]int{}
		for i := 0; i < 3000; i++ {
			op := g.next()
			kinds[op.Kind]++
			if op.Body == nil {
				continue
			}
			tb := tables[op.Session]
			var body struct {
				Deltas stream.Batch `json:"deltas"`
			}
			if err := json.Unmarshal(op.Body, &body); err != nil {
				t.Fatal(err)
			}
			if err := stream.ValidateBatch(tb, body.Deltas); err != nil {
				t.Fatalf("client %d op %d (%s) is out of range for its table: %v", c, i, op.Kind, err)
			}
			for _, d := range body.Deltas {
				switch d.Kind {
				case stream.OpAppend:
					for _, r := range d.Rows {
						if err := tb.Append(r); err != nil {
							t.Fatal(err)
						}
					}
				case stream.OpUpdate:
					ci, _ := tb.ColIndex(d.Column)
					tb.SetCell(d.Row, ci, d.Value)
				case stream.OpDelete:
					if _, err := tb.DeleteRows(d.Drop...); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, k := range []opKind{opAppend, opUpdate, opDelete, opSince, opPage} {
			if kinds[k] == 0 {
				t.Errorf("client %d: 3000 ops of the mixed script held no %s", c, k)
			}
		}
		for i, m := range models[c] {
			if tables[i].NumRows() != len(m.rows) {
				t.Fatalf("%s: model has %d rows, table %d", m.name, len(m.rows), tables[i].NumRows())
			}
			for r := range m.rows {
				if !reflect.DeepEqual(m.rows[r], tables[i].Row(r)) {
					t.Fatalf("%s row %d: model %v, table %v", m.name, r, m.rows[r], tables[i].Row(r))
				}
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 99); got != 3 {
		t.Errorf("p99 of three samples = %v, want the maximum", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of {1,5,9} = %v, want 5", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	got := quartileSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: fan-out
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 20, 30 - 5, 30, 40, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	agg := aggregate([]span{
		{ID: 0, Parent: -1, Name: "delta", Op: "append", Start: 0, End: 10},
		{ID: 1, Parent: -1, Name: "delta", Op: "update", Start: 10, End: 30},
	})
	if a := agg[spanKey{"delta", ""}]; a.Count != 2 || a.Total != 30 {
		t.Errorf("all-kinds total = %+v, want 2 spans, 30ns", a)
	}
	if a := agg[spanKey{"delta", "update"}]; a.Count != 1 || a.Total != 20 {
		t.Errorf("update total = %+v, want 1 span, 20ns", a)
	}
}

func TestRecorderNestsAndCanBeSwitchedOff(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer")
	inner := r.begin("inner")
	fan := r.beginUnder(r.top(), "fan")
	r.end(fan)
	r.end(inner)
	r.add("late", 1, 2)
	r.end(outer)
	parents := map[string]int{}
	for _, s := range r.spans {
		parents[s.Name] = s.Parent
	}
	if want := map[string]int{"outer": -1, "inner": outer, "fan": inner, "late": outer}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	off := newRecorder()
	off.off = true
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Errorf("a switched-off recorder kept %d spans", len(off.spans))
	}
}

func TestFoldFollowsSinceResponses(t *testing.T) {
	v := func(row int) pfd.Violation {
		return pfd.Violation{PFDID: "t:a->b", Row: "r", Cells: []table.CellRef{{Row: row, Column: "b"}}, Tuples: []int{row}}
	}
	f := newFolded(3, []pfd.Violation{v(1), v(2)})
	moved := v(2)
	moved.Observed = "x" // same identity, new rendering: removed and added
	f.fold(&diffResponse{Seq: 4, Changes: []diffChange{{"added", moved}, {"added", v(5)}, {"removed", v(2)}, {"removed", v(1)}}})
	got := f.violations()
	if f.cursor != 4 || len(got) != 2 || got[0].Observed != "x" || got[1].Tuples[0] != 5 {
		t.Errorf("after a diff: cursor %d, set %+v", f.cursor, got)
	}
	f.fold(&diffResponse{Seq: 9, Reset: true, Changes: []diffChange{{"added", v(7)}}})
	if got := f.violations(); f.cursor != 9 || len(got) != 1 || got[0].Tuples[0] != 7 {
		t.Errorf("after a reset: cursor %d, set %+v", f.cursor, got)
	}
}

// TestBenchmarkFileNamesWhatTheCodeReports keeps BENCHMARK.json and the
// metric tables in spec.go in step, and inside the contract's limits.
func TestBenchmarkFileNamesWhatTheCodeReports(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the code", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}

func writeRecord(t *testing.T, dir, name string, values map[string]float64) {
	t.Helper()
	rec := record{Results: []*result{{Workload: "stream_point", Correct: true, Metrics: values}}}
	b, _ := json.Marshal(rec)
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAppliesTheBounds(t *testing.T) {
	bf := &benchmarkFile{}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "stream_point"})
	for _, d := range []metricDef{{"ack_p50_ms", "ms", "lower"}, {"rows_per_s", "rows/s", "higher"}} {
		bf.EndToEnd = append(bf.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, 0.10})
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	for i, f := range []float64{0.98, 1, 1.02} {
		name := string(rune('a'+i)) + ".json"
		writeRecord(t, a, name, map[string]float64{"ack_p50_ms": 2 * f, "rows_per_s": 500 * f})
		writeRecord(t, same, name, map[string]float64{"ack_p50_ms": 2.1 * f, "rows_per_s": 480 * f})
		writeRecord(t, slow, name, map[string]float64{"ack_p50_ms": 2 * f, "rows_per_s": 400 * f})
	}
	if ok, err := check(io.Discard, bf, a, same); err != nil || !ok {
		t.Errorf("5%% worse under a 10%% bound: ok=%v err=%v, want a pass", ok, err)
	}
	var out bytes.Buffer
	if ok, err := check(&out, bf, a, slow); err != nil || ok {
		t.Errorf("20%% lower throughput under a 10%% bound: ok=%v err=%v, want a failure", ok, err)
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("the failing metric is not named:\n%s", out.String())
	}
}

// TestQuick is the smoke path: every workload, untraced and traced, at
// about 1/20 size against the in-process server. It keeps the harness
// compiling and its verifiers live under plain `go test`.
func TestQuick(t *testing.T) {
	t0 := time.Now()
	var out, errs bytes.Buffer
	if code := run([]string{"-quick", "-root", ".."}, &out, &errs); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s\n%s", code, errs.String(), out.String())
	}
	for _, w := range workloads {
		for _, kind := range []string{"end-to-end", "per-layer"} {
			if !strings.Contains(out.String(), w.Name+"  seed 2019  "+kind+"  correct=true") {
				t.Errorf("no correct %s result for %s in the output", kind, w.Name)
			}
		}
	}
	t.Logf("bench -quick took %v", time.Since(t0))
}

// tamper is a backend that loses one violation from every full read, as
// a server with a broken merge would.
type tamper struct{ backend }

func (b tamper) page(c int, id string, limit, offset int) ([]byte, time.Duration, error) {
	out, d, err := b.backend.page(c, id, limit, offset)
	if err != nil || limit != 0 {
		return out, d, err
	}
	var body map[string]json.RawMessage
	var vs []json.RawMessage
	if json.Unmarshal(out, &body) != nil || json.Unmarshal(body["violations"], &vs) != nil || len(vs) == 0 {
		return out, d, err
	}
	body["violations"], _ = json.Marshal(vs[1:])
	out, _ = json.Marshal(body)
	return out, d, nil
}

func TestVerifierRejectsAWrongViolationSet(t *testing.T) {
	spec := workloadByName("stream_point").scaled(0.05)
	tg, err := startInproc(t.TempDir(), spec.Topo, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	sr, err := setupStream(&spec, 5, newHTTPBackend(tg, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	o := sr.runOps([]int{50})
	bodies, _, err := sr.references()
	if err != nil {
		t.Fatal(err)
	}
	sr.verify(bodies, o)
	if o.Failed != 0 {
		t.Fatalf("an honest server failed verification: %v", o.Failures)
	}
	sr.be = tamper{sr.be}
	sr.verify(bodies, o)
	if o.Failed == 0 {
		t.Fatal("a violation set missing one violation passed verification")
	}
}
