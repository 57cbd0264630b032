package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
)

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestStoreBoundedByLiveSessions: the document store holds the per-session
// documents (violations, profile, DMV findings) of the sessions that are
// alive and nothing of the ones that are gone — however many uploads the
// server has served, however often a session re-ran a stage, and whichever
// way a session went: DELETE, or a create that failed after its stages had
// written.
func TestStoreBoundedByLiveSessions(t *testing.T) {
	dir := t.TempDir()
	srv, h, _ := durableServer(t, dir)
	store := srv.sys.Store()
	perSession := []string{core.CollViolations, core.CollProfiles, core.CollDMVFindings}
	wantCounts := func(when string, want ...int) {
		t.Helper()
		for i, coll := range perSession {
			if got := store.Count(coll, nil); got != want[i] {
				t.Errorf("%s: %d document(s) in %q, want %d", when, got, coll, want[i])
			}
		}
	}

	gens := []func(n int, errRate float64, seed int64) *datagen.Dataset{
		datagen.PhoneState, datagen.NameGender, datagen.ZipCity,
	}
	pfdDocs := 0
	for round := 0; round < 50; round++ {
		body := csvBody(t, gens[round%len(gens)](300, 0.01, int64(100+round)))
		rec, out := postCSV(t, h, "/api/v1/sessions?name=t", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: upload: %d %s", round, rec.Code, rec.Body.String())
		}
		id := out["session"].(string)
		if round == 0 {
			if n := store.Count(core.CollViolations, nil); n == 0 || n != int(out["violations"].(float64)) {
				t.Fatalf("live session: %d violation document(s), upload reported %v", n, out["violations"])
			}
			pfdDocs = store.Count(core.CollPFDs, nil)
		}
		if rec := do(t, h, http.MethodDelete, "/api/v1/sessions/"+id, ""); rec.Code != http.StatusOK {
			t.Fatalf("round %d: delete: %d %s", round, rec.Code, rec.Body.String())
		}
	}
	wantCounts("after 50 upload→DELETE rounds", 0, 0, 0)
	if pfdDocs == 0 || store.Count(core.CollPFDs, nil) <= pfdDocs {
		t.Errorf("PFD documents must outlive their sessions (LoadPFDs serves them by table): %d after round 0, %d now",
			pfdDocs, store.Count(core.CollPFDs, nil))
	}

	// A live session that re-runs its stages keeps one copy of each
	// document, and what the API serves does not change.
	rec, out := postCSV(t, h, "/api/v1/sessions?name=zips", csvBody(t, datagen.ZipCity(600, 0.01, 25)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	live := "/api/v1/sessions/" + out["session"].(string)
	violations := int(out["violations"].(float64))
	bodies := func() string {
		return get(t, h, live+"/violations?limit=100000").Body.String() + get(t, h, live+"/pfds").Body.String()
	}
	before := bodies()
	if rec := get(t, h, live+"/dmv"); rec.Code != http.StatusOK {
		t.Fatalf("dmv: %d", rec.Code)
	}
	findings := store.Count(core.CollDMVFindings, nil)
	if findings == 0 {
		t.Fatal("fixture has no DMV finding: the DMV counts below would check nothing")
	}
	wantCounts("live session", violations, 1, findings)
	for i := 0; i < 2; i++ {
		if rec := do(t, h, http.MethodPost, live+"/confirm", ""); rec.Code != http.StatusOK {
			t.Fatalf("confirm: %d %s", rec.Code, rec.Body.String())
		}
		if rec := get(t, h, live+"/dmv"); rec.Code != http.StatusOK {
			t.Fatalf("dmv: %d", rec.Code)
		}
	}
	wantCounts("live session after two more detection and DMV runs", violations, 1, findings)
	if after := bodies(); after != before {
		t.Errorf("/violations or /pfds changed across detection re-runs")
	}

	// A create whose first checkpoint fails answers 500 after every stage
	// has written; nothing of it may stay. (A directory squats on the
	// snapshot's temporary file name.)
	n, err := strconv.Atoi(strings.TrimPrefix(out["session"].(string), "s"))
	if err != nil {
		t.Fatal(err)
	}
	next := fmt.Sprintf("s%d", n+1)
	if err := os.Mkdir(filepath.Join(dir, "snap", next+".snap.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec, _ = postCSV(t, h, "/api/v1/sessions?name=doomed", csvBody(t, datagen.PhoneState(300, 0.01, 7)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("upload over a blocked checkpoint: %d %s, want 500", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/api/v1/sessions/"+next); rec.Code != http.StatusNotFound {
		t.Fatalf("failed create registered %s: %d", next, rec.Code)
	}
	wantCounts("after a failed create", violations, 1, findings)

	if rec := do(t, h, http.MethodDelete, live, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	wantCounts("after deleting the last session", 0, 0, 0)
}

// TestDiscardedSessionStoresNothing: a request that resolved its session
// just before the DELETE re-runs detection on it afterwards; the documents
// of that run would never be removed, so they are not written.
func TestDiscardedSessionStoresNothing(t *testing.T) {
	sys := core.NewSystem(docstore.NewMem())
	srv := New(sys)
	h := srv.Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=zips", csvBody(t, datagen.ZipCity(400, 0.01, 3)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)
	late := srv.handle(id) // what a concurrent request holds
	if rec := do(t, h, http.MethodDelete, "/api/v1/sessions/"+id, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	late.mu.Lock()
	err := late.sess.RunStages(httptest.NewRequest(http.MethodGet, "/", nil).Context(), core.StageProfile, core.StageDMV, core.StageDetection)
	late.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, coll := range []string{core.CollViolations, core.CollProfiles, core.CollDMVFindings} {
		if n := sys.Store().Count(coll, nil); n != 0 {
			t.Errorf("%d document(s) in %q written for a deleted session", n, coll)
		}
	}
}
