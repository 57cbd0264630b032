package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
)

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestStoreBoundedByLiveSessions: the document store holds the projects
// and one PFD rule set per table name, and nothing else — however many
// uploads the server has served and however often a session re-ran a
// stage. What a session computed is served from the session, unchanged
// across re-runs, and is gone with it.
func TestStoreBoundedByLiveSessions(t *testing.T) {
	dir := t.TempDir()
	srv, h, _ := durableServer(t, dir)
	srv.sys.CreateProject("default") // as cmd/anmat-server does
	store := srv.sys.Store()
	wantCollections := func(when string) {
		t.Helper()
		if got := store.Collections(); !reflect.DeepEqual(got, []string{core.CollPFDs, core.CollProjects}) {
			t.Errorf("%s: the store holds collections %v", when, got)
		}
	}

	families := []struct {
		name string
		gen  func(n int, errRate float64, seed int64) *datagen.Dataset
	}{{"phones", datagen.PhoneState}, {"names", datagen.NameGender}, {"zips", datagen.ZipCity}}
	pfdDocs := 0
	for round := 0; round < 50; round++ {
		f := families[round%len(families)]
		body := csvBody(t, f.gen(300, 0.01, int64(100+round%len(families))))
		rec, out := postCSV(t, h, "/api/v1/sessions?name="+f.name, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: upload: %d %s", round, rec.Code, rec.Body.String())
		}
		if rec := do(t, h, http.MethodDelete, "/api/v1/sessions/"+out["session"].(string), ""); rec.Code != http.StatusOK {
			t.Fatalf("round %d: delete: %d %s", round, rec.Code, rec.Body.String())
		}
		if round == len(families)-1 {
			pfdDocs = store.Count(core.CollPFDs, nil)
		}
	}
	wantCollections("after 50 upload→DELETE rounds")
	if got := store.Count(core.CollPFDs, nil); pfdDocs == 0 || got > pfdDocs {
		t.Errorf("%d PFD documents once every table name had been uploaded, %d after 50 rounds: a name's rule set must be replaced, not added to", pfdDocs, got)
	}

	// A live session that re-runs its stages serves what it served.
	rec, out := postCSV(t, h, "/api/v1/sessions?name=zips", csvBody(t, datagen.ZipCity(600, 0.01, 25)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	live := "/api/v1/sessions/" + out["session"].(string)
	bodies := func() string {
		return get(t, h, live+"/violations?limit=100000").Body.String() + get(t, h, live+"/pfds").Body.String()
	}
	before := bodies()
	if int(out["violations"].(float64)) == 0 || !strings.Contains(before, `"violations"`) {
		t.Fatal("fixture has no violation: the comparison below would check nothing")
	}
	for i := 0; i < 2; i++ {
		if rec := do(t, h, http.MethodPost, live+"/confirm", ""); rec.Code != http.StatusOK {
			t.Fatalf("confirm: %d %s", rec.Code, rec.Body.String())
		}
		if rec := get(t, h, live+"/dmv"); rec.Code != http.StatusOK {
			t.Fatalf("dmv: %d", rec.Code)
		}
	}
	if after := bodies(); after != before {
		t.Errorf("/violations or /pfds changed across detection re-runs")
	}
	wantCollections("live session after two more detection and DMV runs")

	// A create whose first checkpoint fails answers 500 and registers no
	// session. (A directory squats on the snapshot's temporary file name.)
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
}
