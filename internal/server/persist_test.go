package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/persist"
)

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// durableServer builds a server backed by a persist.Manager at dir,
// restoring any previous state first (the anmat-server -data startup
// sequence).
func durableServer(t *testing.T, dir string) (*Server, http.Handler, *persist.Manager) {
	t.Helper()
	m, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	if _, err := srv.RestoreSessions(m); err != nil {
		t.Fatal(err)
	}
	srv.AttachPersist(m)
	return srv, srv.Handler(), m
}

// TestServerRestartPreservesSessions is the end-to-end restart flow: a
// session created and mutated over HTTP comes back after a simulated
// server restart with the same ID, table, violations, and — critically —
// a working `violations?since=` cursor issued before the restart.
func TestServerRestartPreservesSessions(t *testing.T) {
	dir := t.TempDir()
	_, h, m := durableServer(t, dir)

	d := datagen.PhoneState(300, 0.01, 41)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	// Mutate through the incremental engine so the WAL has a tail.
	rec, diff := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"append","rows":[["4155550000","CA"],["9995550000","ZZ"]]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	cursor := int64(diff["seq"].(float64)) - 1 // cursor issued before the last batch

	before := get(t, h, "/api/v1/sessions/"+id+"/violations")
	if before.Code != http.StatusOK {
		t.Fatalf("violations: %d", before.Code)
	}
	beforeDiff := get(t, h, "/api/v1/sessions/"+id+"/violations?since="+itoa(cursor))
	if beforeDiff.Code != http.StatusOK {
		t.Fatalf("since before restart: %d %s", beforeDiff.Code, beforeDiff.Body.String())
	}

	// "Restart": drop every in-memory structure, rehydrate from disk.
	m.Close()
	srv2, h2, _ := durableServer(t, dir)

	list := get(t, h2, "/api/v1/sessions")
	var listing struct {
		Sessions []sessionSummary `json:"sessions"`
		Default  string           `json:"default"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0].Session != id {
		t.Fatalf("restored listing = %s", list.Body.String())
	}
	if listing.Default != id {
		t.Errorf("default session = %q, want %q", listing.Default, id)
	}
	if st := listing.Sessions[0].Persistence; st == nil {
		t.Error("persistence status missing from admin listing")
	} else if st.WALRecords != 1 {
		t.Errorf("persistence status = %+v, want 1 replayed WAL record", st)
	}

	after := get(t, h2, "/api/v1/sessions/"+id+"/violations")
	if after.Code != http.StatusOK {
		t.Fatalf("violations after restart: %d", after.Code)
	}
	if before.Body.String() != after.Body.String() {
		t.Errorf("violation set changed across restart:\nbefore %s\nafter  %s",
			before.Body.String(), after.Body.String())
	}

	// The pre-restart cursor resolves to the identical diff.
	afterDiff := get(t, h2, "/api/v1/sessions/"+id+"/violations?since="+itoa(cursor))
	if afterDiff.Code != http.StatusOK {
		t.Fatalf("since after restart: %d %s", afterDiff.Code, afterDiff.Body.String())
	}
	if beforeDiff.Body.String() != afterDiff.Body.String() {
		t.Errorf("cursor %d diff changed across restart:\nbefore %s\nafter  %s",
			cursor, beforeDiff.Body.String(), afterDiff.Body.String())
	}

	// A cursor predating the restored engine's history resolves to a
	// flagged snapshot reset, not an error — but only if the snapshot
	// compacted past it; with the full WAL replayed it stays exact.
	reset := get(t, h2, "/api/v1/sessions/"+id+"/violations?since=0")
	if reset.Code != http.StatusOK {
		t.Fatalf("since=0 after restart: %d %s", reset.Code, reset.Body.String())
	}

	// New sessions after the restart get fresh IDs, not collisions.
	rec, out2 := postCSV(t, srv2.Handler(), "/api/v1/sessions?name=phones2", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-restart upload: %d %s", rec.Code, rec.Body.String())
	}
	if out2["session"].(string) == id {
		t.Errorf("session ID %s reused after restart", id)
	}
}

// TestDeleteSessionDropsPersistedState verifies DELETE removes the
// durable image too: after a restart the session must not come back.
func TestDeleteSessionDropsPersistedState(t *testing.T) {
	dir := t.TempDir()
	_, h, m := durableServer(t, dir)
	d := datagen.PhoneState(200, 0.01, 43)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	dreq := httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id, nil)
	delRec := httptest.NewRecorder()
	h.ServeHTTP(delRec, dreq)
	if delRec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", delRec.Code, delRec.Body.String())
	}

	m.Close()
	_, h2, _ := durableServer(t, dir)
	if rec := get(t, h2, "/api/v1/sessions/"+id); rec.Code != http.StatusNotFound {
		t.Errorf("deleted session resurrected: %d %s", rec.Code, rec.Body.String())
	}
}

// TestConfirmSurvivesRestart checks the confirmed-rule subset (and its
// re-detected violation set) is what comes back after a restart, and —
// the subtle half — that a cursor issued before the confirm resolves the
// same way on the recovered server as it would have on the live one: to
// a flagged snapshot reset, never to a silent empty diff that would
// leave the client holding pre-confirm violations.
func TestConfirmSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, h, m := durableServer(t, dir)
	// Zip data mines several PFDs (zip→city, zip→state, …) so a strict
	// subset confirm genuinely changes the rule set; a 1-rule dataset
	// would make "subset" a no-op and the cursor legitimately diff-able.
	d := datagen.ZipCity(800, 0.01, 47)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=zips", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	// Build a stream timeline before the confirm so a client can hold a
	// pre-confirm cursor.
	rec, diff := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"delete","drop":[0]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	cursor := int64(diff["seq"].(float64))

	// Confirm a strict subset: the rule set changes, the engine is
	// replaced, and detection re-runs over fewer rules.
	pfds := get(t, h, "/api/v1/sessions/"+id+"/pfds")
	var pl struct {
		PFDs []struct {
			Table, LHS, RHS string
		} `json:"pfds"`
	}
	if err := json.Unmarshal(pfds.Body.Bytes(), &pl); err != nil || len(pl.PFDs) < 2 {
		t.Fatalf("need ≥2 PFDs for a strict subset, got: %s", pfds.Body.String())
	}
	p := pl.PFDs[0]
	body := `{"ids":["` + p.Table + `:` + p.LHS + `->` + p.RHS + `"]}`
	rec, conf := postJSON(t, h, "/api/v1/sessions/"+id+"/confirm", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("confirm: %d %s", rec.Code, rec.Body.String())
	}
	wantVio := conf["violations"]

	// Live behavior for the pre-confirm cursor: a reset snapshot.
	liveDiff := get(t, h, "/api/v1/sessions/"+id+"/violations?since="+itoa(cursor))
	if liveDiff.Code != http.StatusOK {
		t.Fatalf("live since: %d %s", liveDiff.Code, liveDiff.Body.String())
	}
	var live struct {
		Reset bool `json:"reset"`
	}
	if err := json.Unmarshal(liveDiff.Body.Bytes(), &live); err != nil || !live.Reset {
		t.Fatalf("live pre-confirm cursor should reset: %s", liveDiff.Body.String())
	}

	m.Close()
	_, h2, _ := durableServer(t, dir)
	sum := get(t, h2, "/api/v1/sessions/"+id)
	var s sessionSummary
	if err := json.Unmarshal(sum.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if float64(s.Violations) != wantVio.(float64) {
		t.Errorf("violations after restart = %d, want %v", s.Violations, wantVio)
	}
	recDiff := get(t, h2, "/api/v1/sessions/"+id+"/violations?since="+itoa(cursor))
	if recDiff.Code != http.StatusOK {
		t.Fatalf("recovered since: %d %s", recDiff.Code, recDiff.Body.String())
	}
	var recovered struct {
		Reset bool `json:"reset"`
	}
	if err := json.Unmarshal(recDiff.Body.Bytes(), &recovered); err != nil {
		t.Fatal(err)
	}
	if !recovered.Reset {
		t.Errorf("recovered pre-confirm cursor must reset like the live server, got: %s", recDiff.Body.String())
	}
}
