package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
)

// getJSON performs a GET and decodes the JSON response.
func getJSON(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

// newShardedServer builds a server whose sessions run 4-shard incremental
// engines, with one full-pipeline session uploaded.
func newShardedServer(t *testing.T) (http.Handler, string) {
	t.Helper()
	cfg := core.DefaultSystemConfig()
	cfg.Shards = 4
	srv := New(core.NewSystemWith(docstore.NewMem(), cfg))
	h := srv.Handler()
	d := datagen.PhoneState(400, 0.01, 31)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	return h, out["session"].(string)
}

func TestHealthz(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	rec, out := getJSON(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body = %v", out)
	}
	if _, ok := out["uptime_s"].(float64); !ok {
		t.Fatalf("healthz uptime missing: %v", out)
	}
	if out["sessions"].(float64) != 0 {
		t.Fatalf("healthz sessions = %v", out["sessions"])
	}
}

func TestStatsEndpoint(t *testing.T) {
	h, id := newShardedServer(t)

	// Detection booted the sharded coordinator at upload: before any
	// delta it reads kind "sharded", shards 4, at seq 0.
	rec, out := getJSON(t, h, "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d %s", rec.Code, rec.Body.String())
	}
	per := out["per_session"].([]any)
	if len(per) != 1 {
		t.Fatalf("per_session = %v", per)
	}
	se := per[0].(map[string]any)
	if se["session"] != id || se["detected"] != true {
		t.Fatalf("session stats = %v", se)
	}
	eng := se["engine"].(map[string]any)
	if eng["kind"] != "sharded" || eng["shards"].(float64) != 4 || eng["sharded"].(map[string]any)["seq"].(float64) != 0 {
		t.Fatalf("engine stats before deltas = %v", eng)
	}

	// A delta goes through that coordinator; stats expose per-shard rows
	// and the replication factor.
	rec, _ = postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"append","rows":[["8509990000","GA"]]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	_, out = getJSON(t, h, "/api/v1/stats")
	eng = out["per_session"].([]any)[0].(map[string]any)["engine"].(map[string]any)
	if eng["kind"] != "sharded" {
		t.Fatalf("engine kind after deltas = %v", eng["kind"])
	}
	sh := eng["sharded"].(map[string]any)
	if sh["shards"].(float64) != 4 || sh["seq"].(float64) != 1 {
		t.Fatalf("sharded stats = %v", sh)
	}
	perShard := sh["per_shard"].([]any)
	if len(perShard) != 4 {
		t.Fatalf("per_shard entries = %d", len(perShard))
	}
	total := 0.0
	for _, e := range perShard {
		total += e.(map[string]any)["rows"].(float64)
	}
	if repl := sh["replication"].(float64); repl < 1.0 || total != repl*sh["rows"].(float64) {
		t.Fatalf("replication %v inconsistent with shard rows %v", repl, total)
	}
}

// TestDetectionEndpointShardStats asserts the detection summary carries
// the session's shard count and live engine stats, and that a sharded
// session's delta/violation flow stays byte-compatible with the
// single-engine API surface.
func TestDetectionEndpointShardStats(t *testing.T) {
	h, id := newShardedServer(t)
	rec, out := getJSON(t, h, "/api/v1/sessions/"+id+"/detection")
	if rec.Code != http.StatusOK {
		t.Fatalf("detection = %d %s", rec.Code, rec.Body.String())
	}
	if out["shards"].(float64) != 4 {
		t.Fatalf("detection shards = %v", out["shards"])
	}
	if eng := out["engine"].(map[string]any); eng["shards"].(float64) != 4 {
		t.Fatalf("detection engine stats = %v", eng)
	}

	// Violations diff flow through the sharded engine.
	rec, out = postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"update","row":0,"column":"state","value":"ZZ"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	if out["seq"].(float64) != 1 {
		t.Fatalf("diff seq = %v", out["seq"])
	}
	rec, out = getJSON(t, h, "/api/v1/sessions/"+id+"/violations?since=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("violations?since: %d %s", rec.Code, rec.Body.String())
	}
	if out["seq"].(float64) != 1 {
		t.Fatalf("since seq = %v", out["seq"])
	}
}

// TestDeltasNotAppliedAnswer500: a well-formed batch that a dead worker
// (and no spare) keeps from being applied is the server's failure, not
// the client's: 500, telling the client to resync rather than resubmit.
func TestDeltasNotAppliedAnswer500(t *testing.T) {
	cfg := core.DefaultSystemConfig()
	var workers []*httptest.Server
	for s := 0; s < 2; s++ {
		w := cluster.NewWorker(s, 2)
		w.SetLogf(nil)
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		workers = append(workers, ws)
		cfg.Workers = append(cfg.Workers, ws.URL)
	}
	h := New(core.NewSystemWith(docstore.NewMem(), cfg)).Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(400, 0.01, 31)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	path := "/api/v1/sessions/" + out["session"].(string) + "/deltas"
	if rec, _ := postJSON(t, h, path, `{"deltas":[{"op":"append","rows":[["8509990000","GA"]]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	workers[1].Close()
	// Two appended rows have homes on both shards.
	rec, _ = postJSON(t, h, path, `{"deltas":[{"op":"append","rows":[["8509990001","GA"],["8509990002","GA"]]}]}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "resync with violations?since=") {
		t.Fatalf("batch a dead worker could not apply: %d %s, want 500 naming the resync", rec.Code, rec.Body.String())
	}
}

// TestStatsCarriesWorkerCounters: a distributed session's stats show,
// under each shard, the worker's applied-batch and redelivery counts as
// its /shard/v1/stats answers them, and a poisoned worker as that shard's
// error.
func TestStatsCarriesWorkerCounters(t *testing.T) {
	cfg := core.DefaultSystemConfig()
	for s := 0; s < 2; s++ {
		w := cluster.NewWorker(s, 2)
		w.SetLogf(nil)
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		cfg.Workers = append(cfg.Workers, ws.URL)
	}
	srv := New(core.NewSystemWith(docstore.NewMem(), cfg))
	h := srv.Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(400, 0.01, 31)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)
	for _, body := range []string{
		`{"deltas":[{"op":"append","rows":[["8509990000","GA"]]}]}`,
		`{"deltas":[{"op":"update","row":0,"column":"state","value":"ZZ"}]}`,
	} {
		if rec, _ := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas", body); rec.Code != http.StatusOK {
			t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
		}
	}
	perShard := func() []map[string]any {
		t.Helper()
		_, out := getJSON(t, h, "/api/v1/stats")
		se := out["per_session"].([]any)[0].(map[string]any)
		if _, ok := se["cluster"]; ok {
			t.Fatal("stats still carry a scraped cluster view")
		}
		eng := se["engine"].(map[string]any)
		if eng["kind"] != "cluster" {
			t.Fatalf("engine kind = %v", eng["kind"])
		}
		var entries []map[string]any
		for _, e := range eng["sharded"].(map[string]any)["per_shard"].([]any) {
			entries = append(entries, e.(map[string]any))
		}
		return entries
	}
	applied := 0.0
	for _, e := range perShard() {
		if e["error"] != nil {
			t.Fatalf("shard %v: %v", e["shard"], e["error"])
		}
		n, _ := e["batches_applied"].(float64)
		applied += n
	}
	if applied < 2 {
		t.Fatalf("workers applied %v batches in all, want at least one per delta", applied)
	}

	// Poison worker 1 with a batch that fails mid-apply, sent under the
	// coordinator's epoch, which the worker's probe reports.
	probe, err := http.Get(cfg.Workers[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var state cluster.StateResponse
	err = json.NewDecoder(probe.Body).Decode(&state)
	probe.Body.Close()
	if err != nil || state.Epoch == "" {
		t.Fatalf("worker probe: %+v, %v", state, err)
	}
	req, _ := http.NewRequest(http.MethodPost, cfg.Workers[1]+cluster.APIPrefix+"/apply",
		strings.NewReader(`{"seq":1000,"ops":[{"op":{"op":"delete","drop":[99999]}}]}`))
	req.Header.Set(cluster.EpochHeader, state.Epoch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoning apply answered %s", resp.Status)
	}
	entries := perShard()
	if msg, _ := entries[1]["error"].(string); !strings.Contains(msg, "poisoned") {
		t.Fatalf("poisoned shard's stats entry = %v, want its error", entries[1])
	}
	if entries[0]["error"] != nil {
		t.Fatalf("healthy shard reports %v", entries[0]["error"])
	}
}
