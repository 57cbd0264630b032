package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/stream"
)

// s1 is the route prefix of the first session a fresh system creates.
const s1 = "/api/v1/sessions/s1"

// newLoadedServer serves one 800-row session, s1.
func newLoadedServer(t *testing.T) *Server {
	t.Helper()
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	sys.CreateProject("demo")
	srv := New(sys)
	d := datagen.ZipCity(800, 0.01, 21)
	if _, err := srv.CreateSession(context.Background(), "demo", d.Table, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	return srv
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAPIProfile(t *testing.T) {
	h := newLoadedServer(t).Handler()
	rec := get(t, h, s1+"/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Table   string `json:"table"`
		Rows    int    `json:"rows"`
		Columns []struct {
			Name     string `json:"name"`
			Type     string `json:"type"`
			Patterns []struct {
				Pattern   string `json:"Pattern"`
				Frequency int    `json:"Frequency"`
			} `json:"patterns"`
		} `json:"columns"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 800 || len(out.Columns) != 3 {
		t.Errorf("profile = %+v", out)
	}
	if len(out.Columns[0].Patterns) == 0 {
		t.Error("zip column should list patterns")
	}
}

func TestAPIPFDsAndViolations(t *testing.T) {
	h := newLoadedServer(t).Handler()
	rec := get(t, h, s1+"/pfds")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "tableau") {
		t.Errorf("pfds: %d %s", rec.Code, rec.Body.String()[:100])
	}
	rec = get(t, h, s1+"/violations")
	var out struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 {
		t.Error("dirty dataset should produce violations")
	}
	rec = get(t, h, s1+"/repairs")
	if rec.Code != http.StatusOK {
		t.Errorf("repairs status = %d", rec.Code)
	}
}

func TestAPIProjects(t *testing.T) {
	h := newLoadedServer(t).Handler()
	rec := get(t, h, "/api/v1/projects")
	if !strings.Contains(rec.Body.String(), "demo") {
		t.Errorf("projects = %s", rec.Body.String())
	}
}

func TestAPIEmptySession(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	for _, path := range []string{s1 + "/profile", s1 + "/pfds", s1 + "/violations", s1 + "/repairs"} {
		if rec := get(t, h, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s without session: status %d", path, rec.Code)
		}
	}
}

func TestAPIUpload(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	csv := "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,Los Angeles\n90005,New York\n"
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=zips&coverage=0.5&violations=0.4", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Table string `json:"table"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Table != "zips" || out.Rows != 5 {
		t.Errorf("upload = %+v", out)
	}
	// Pages should now render.
	if rec := get(t, h, "/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "zips") {
		t.Errorf("index page: %d", rec.Code)
	}
}

func TestAPIUploadBadCSV(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions", strings.NewReader(""))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty upload status = %d", rec.Code)
	}
}

func TestAPIConfirm(t *testing.T) {
	srv := newLoadedServer(t)
	h := srv.Handler()
	// Find a discovered PFD id.
	rec := get(t, h, s1+"/pfds")
	var pfds struct {
		PFDs []struct {
			Table string `json:"table"`
			LHS   string `json:"lhs"`
			RHS   string `json:"rhs"`
		} `json:"pfds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pfds); err != nil {
		t.Fatal(err)
	}
	if len(pfds.PFDs) == 0 {
		t.Fatal("no PFDs to confirm")
	}
	id := pfds.PFDs[0].Table + ":" + pfds.PFDs[0].LHS + "->" + pfds.PFDs[0].RHS

	body := strings.NewReader(`{"ids": ["` + id + `"]}`)
	req := httptest.NewRequest(http.MethodPost, s1+"/confirm", body)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("confirm status = %d: %s", rec2.Code, rec2.Body.String())
	}
	var out struct {
		Confirmed  []string `json:"confirmed"`
		Violations int      `json:"violations"`
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Confirmed) != 1 || out.Confirmed[0] != id {
		t.Errorf("confirmed = %v", out.Confirmed)
	}

	// Bad id rejected.
	req = httptest.NewRequest(http.MethodPost, s1+"/confirm", strings.NewReader(`{"ids":["nope"]}`))
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d", rec3.Code)
	}

	// Empty body confirms everything.
	req = httptest.NewRequest(http.MethodPost, s1+"/confirm", strings.NewReader(""))
	rec4 := httptest.NewRecorder()
	h.ServeHTTP(rec4, req)
	if rec4.Code != http.StatusOK {
		t.Errorf("confirm-all status = %d: %s", rec4.Code, rec4.Body.String())
	}
}

func TestAPIViolationDetail(t *testing.T) {
	srv := newLoadedServer(t)
	h := srv.Handler()
	rec := get(t, h, s1+"/violations/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status = %d", rec.Code)
	}
	var out struct {
		Records []struct {
			Row   int               `json:"row"`
			Cells map[string]string `json:"cells"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Records) == 0 {
		t.Fatal("no full records in detail view")
	}
	if _, ok := out.Records[0].Cells["zip"]; !ok {
		t.Errorf("record cells = %v", out.Records[0].Cells)
	}
	if rec := get(t, h, s1+"/violations/999999"); rec.Code != http.StatusNotFound {
		t.Errorf("out-of-range status = %d", rec.Code)
	}
}

func TestAPIDMV(t *testing.T) {
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	srv := New(sys)
	d := datagen.ZipCity(600, 0, 22)
	zi, _ := d.Table.ColIndex("zip")
	for r := 0; r < d.Table.NumRows(); r += 60 {
		d.Table.SetCell(r, zi, "99999")
	}
	if _, err := srv.CreateSession(context.Background(), "demo", d.Table, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv.Handler(), s1+"/dmv")
	if rec.Code != http.StatusOK {
		t.Fatalf("dmv status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "99999") {
		t.Errorf("dmv response lacks sentinel: %s", rec.Body.String())
	}
	empty := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	if rec := get(t, empty.Handler(), s1+"/dmv"); rec.Code != http.StatusNotFound {
		t.Errorf("empty-session dmv status = %d", rec.Code)
	}
}

func TestHTMLPages(t *testing.T) {
	h := newLoadedServer(t).Handler()
	for _, path := range []string{"/", "/profile", "/pfds", "/violations"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Errorf("%s status = %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Errorf("%s content type = %s", path, ct)
		}
		if !strings.Contains(rec.Body.String(), "ANMAT") {
			t.Errorf("%s body lacks title", path)
		}
	}
}

func TestHTMLPagesEmptySession(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	for _, path := range []string{"/", "/profile", "/pfds", "/violations"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Errorf("%s empty-session status = %d", path, rec.Code)
		}
	}
}

// csvBody renders a dataset's table back to CSV for uploading.
func csvBody(t *testing.T, d *datagen.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postCSV(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
	}
	return rec, out
}

// TestV1ConcurrentSessionIsolation uploads two datasets concurrently into
// separate sessions and asserts the registry keeps them isolated. Run
// under -race, this is the registry's data-race regression net.
func TestV1ConcurrentSessionIsolation(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	uploads := []struct {
		name string
		csv  string
	}{
		{"zips", csvBody(t, datagen.ZipCity(800, 0.01, 23))},
		{"phones", csvBody(t, datagen.PhoneState(800, 0.01, 24))},
	}
	ids := make([]string, len(uploads))
	var wg sync.WaitGroup
	for i, up := range uploads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, out := postCSV(t, h, "/api/v1/sessions?name="+up.name+"&project="+up.name, up.csv)
			if rec.Code != http.StatusOK {
				t.Errorf("upload %s: %d %s", up.name, rec.Code, rec.Body.String())
				return
			}
			ids[i] = out["session"].(string)
		}()
	}
	wg.Wait()
	if ids[0] == "" || ids[1] == "" || ids[0] == ids[1] {
		t.Fatalf("session ids = %v, want two distinct", ids)
	}
	// Each session serves its own dataset.
	for i, up := range uploads {
		rec := get(t, h, "/api/v1/sessions/"+ids[i]+"/profile")
		if rec.Code != http.StatusOK {
			t.Fatalf("profile %s: %d", ids[i], rec.Code)
		}
		var out struct {
			Session string `json:"session"`
			Table   string `json:"table"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Session != ids[i] || out.Table != up.name {
			t.Errorf("session %s serves table %q, want %q", out.Session, out.Table, up.name)
		}
	}
	// Concurrent readers across both sessions stay race-free.
	var rg sync.WaitGroup
	for r := 0; r < 8; r++ {
		for _, id := range ids {
			rg.Add(1)
			go func() {
				defer rg.Done()
				for _, sub := range []string{"pfds", "violations", "repairs"} {
					if rec := get(t, h, "/api/v1/sessions/"+id+"/"+sub); rec.Code != http.StatusOK {
						t.Errorf("%s/%s: %d", id, sub, rec.Code)
					}
				}
			}()
		}
	}
	rg.Wait()
	// The list endpoint sees both.
	rec := get(t, h, "/api/v1/sessions")
	var list struct {
		Sessions []struct {
			Session string `json:"session"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 {
		t.Errorf("sessions listed = %d, want 2", len(list.Sessions))
	}
}

// TestV1ViolationsPagination checks limit/offset plus the total count.
func TestV1ViolationsPagination(t *testing.T) {
	srv := newLoadedServer(t)
	h := srv.Handler()
	var all struct {
		Count      int   `json:"count"`
		Returned   int   `json:"returned"`
		Violations []any `json:"violations"`
	}
	rec := get(t, h, s1+"/violations")
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if all.Count < 2 {
		t.Skipf("need ≥2 violations, got %d", all.Count)
	}
	var page struct {
		Count      int   `json:"count"`
		Offset     int   `json:"offset"`
		Returned   int   `json:"returned"`
		Violations []any `json:"violations"`
	}
	rec = get(t, h, s1+"/violations?limit=1&offset=1")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != all.Count || page.Offset != 1 || page.Returned != 1 || len(page.Violations) != 1 {
		t.Errorf("page = %+v", page)
	}
	// Offset past the end yields an empty page, not an error.
	rec = get(t, h, s1+"/violations?offset=999999")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Returned != 0 || page.Count != all.Count {
		t.Errorf("past-end page = %+v", page)
	}
}

// TestAPIBadParams covers the strconv validation: malformed numeric query
// parameters are 400s, not silently ignored.
func TestAPIBadParams(t *testing.T) {
	srv := newLoadedServer(t)
	h := srv.Handler()
	for _, path := range []string{
		s1 + "/violations?limit=abc",
		s1 + "/violations?offset=-3",
		s1 + "/violations/abc",
	} {
		if rec := get(t, h, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, rec.Code)
		}
	}
	for _, q := range []string{"coverage=abc", "violations=x", "coverage=1e"} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions?"+q, strings.NewReader("a,b\n1,2\n"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("upload with %s status = %d, want 400", q, rec.Code)
		}
	}
}

// TestV1SessionLifecycle covers summary, versioned detail, confirm, and
// delete on an addressed session.
func TestV1SessionLifecycle(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=zips", csvBody(t, datagen.ZipCity(600, 0.01, 25)))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	if rec := get(t, h, "/api/v1/sessions/"+id); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"table": "zips"`) {
		t.Errorf("summary: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/api/v1/sessions/"+id+"/violations/0"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "records") {
		t.Errorf("detail: %d", rec.Code)
	}
	if rec := get(t, h, "/api/v1/sessions/"+id+"/violations/abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed detail index: %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/api/v1/sessions/"+id+"/dmv"); rec.Code != http.StatusOK {
		t.Errorf("dmv: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions/"+id+"/confirm", strings.NewReader(""))
	crec := httptest.NewRecorder()
	h.ServeHTTP(crec, req)
	if crec.Code != http.StatusOK {
		t.Errorf("confirm: %d %s", crec.Code, crec.Body.String())
	}

	dreq := httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id, nil)
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, dreq)
	if drec.Code != http.StatusOK {
		t.Fatalf("delete: %d", drec.Code)
	}
	if rec := get(t, h, "/api/v1/sessions/"+id); rec.Code != http.StatusNotFound {
		t.Errorf("deleted session summary: %d, want 404", rec.Code)
	}
	dreq = httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id, nil)
	drec = httptest.NewRecorder()
	h.ServeHTTP(drec, dreq)
	if drec.Code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", drec.Code)
	}
}

// TestDeleteDefaultPromotesSurvivor: no default session is stored — the
// session list's "default" and the HTML pages without ?session= resolve
// to the lowest session ID at lookup, so deleting that session hands
// both to the lowest survivor.
func TestDeleteDefaultPromotesSurvivor(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	_, out1 := postCSV(t, h, "/api/v1/sessions?name=first", csvBody(t, datagen.ZipCity(400, 0.01, 26)))
	_, out2 := postCSV(t, h, "/api/v1/sessions?name=second", csvBody(t, datagen.ZipCity(400, 0.01, 27)))
	id1, id2 := out1["session"].(string), out2["session"].(string)
	check := func(wantID, wantTable string) {
		t.Helper()
		var list struct {
			Default string `json:"default"`
		}
		if err := json.Unmarshal(get(t, h, "/api/v1/sessions").Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if list.Default != wantID {
			t.Errorf("session list default = %q, want %q", list.Default, wantID)
		}
		if rec := get(t, h, "/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "<b>"+wantTable+"</b>") {
			t.Errorf("index page without ?session= does not show %q: %d %s", wantTable, rec.Code, rec.Body.String())
		}
	}
	check(id1, "first")
	// An explicit ?session= still addresses any session.
	if rec := get(t, h, "/?session="+id2); !strings.Contains(rec.Body.String(), "<b>second</b>") {
		t.Errorf("index page with ?session=%s: %s", id2, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id1, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete default: %d", rec.Code)
	}
	check(id2, "second")
}

// TestAPIDetectionStats: the detection endpoint reports per-rule timing
// consistent with the session's violation total.
func TestAPIDetectionStats(t *testing.T) {
	h := newLoadedServer(t).Handler()
	rec := get(t, h, "/api/v1/sessions/s1/detection")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Session    string `json:"session"`
		Rules      int    `json:"rules"`
		Violations int    `json:"violations"`
		Stats      []struct {
			PFD        string  `json:"pfd"`
			Rows       int     `json:"rows"`
			Violations int     `json:"violations"`
			DurationNS int64   `json:"duration_ns"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Session != "s1" || out.Rules == 0 || len(out.Stats) != out.Rules {
		t.Fatalf("detection summary = %+v", out)
	}
	perRule := 0
	for _, st := range out.Stats {
		if st.PFD == "" || st.Rows == 0 || st.DurationNS < 0 {
			t.Errorf("bad rule stat %+v", st)
		}
		perRule += st.Violations
	}
	// Per-rule counts are pre-dedupe, so they bound the merged total.
	if perRule < out.Violations {
		t.Errorf("per-rule violations %d < merged %d", perRule, out.Violations)
	}
	rec = get(t, h, "/api/v1/sessions/nope/detection")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing session: status = %d", rec.Code)
	}
}

// detectionServer builds a server whose system runs detection/repair at
// the given parallelism.
func detectionServer(parallelism int) *Server {
	cfg := core.DefaultSystemConfig()
	cfg.Parallelism = parallelism // discovery inherits the one knob too
	return New(core.NewSystemWith(docstore.NewMem(), cfg))
}

// TestV1ParallelDetectionByteIdentical uploads the same CSV into servers
// configured with parallelism 1, 4, and 8 — several concurrent sessions
// each — and expects every violations and repairs response to be
// byte-identical to the sequential server's. Run under -race this also
// hammers the per-session engine from concurrent HTTP handlers.
func TestV1ParallelDetectionByteIdentical(t *testing.T) {
	body := csvBody(t, datagen.ZipCity(600, 0.02, 33))
	baseline := detectionServer(1).Handler()
	_, out := postCSV(t, baseline, "/api/v1/sessions?name=zips", body)
	baseID := out["session"].(string)
	wantViolations := get(t, baseline, "/api/v1/sessions/"+baseID+"/violations").Body.String()
	wantRepairs := get(t, baseline, "/api/v1/sessions/"+baseID+"/repairs").Body.String()
	stripSession := func(s, id string) string {
		return strings.ReplaceAll(s, `"session": "`+id+`"`, `"session": "X"`)
	}
	wantViolations = stripSession(wantViolations, baseID)
	wantRepairs = stripSession(wantRepairs, baseID)

	for _, par := range []int{1, 4, 8} {
		h := detectionServer(par).Handler()
		const sessions = 4
		ids := make([]string, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, out := postCSV(t, h, "/api/v1/sessions?name=zips", body)
				ids[i] = out["session"].(string)
			}(i)
		}
		wg.Wait()
		for _, id := range ids {
			vs := stripSession(get(t, h, "/api/v1/sessions/"+id+"/violations").Body.String(), id)
			rs := stripSession(get(t, h, "/api/v1/sessions/"+id+"/repairs").Body.String(), id)
			if vs != wantViolations {
				t.Errorf("parallelism %d session %s: violations differ from sequential", par, id)
			}
			if rs != wantRepairs {
				t.Errorf("parallelism %d session %s: repairs differ from sequential", par, id)
			}
		}
	}
}

// stubPersister journals and checkpoints nothing. A journal or checkpoint
// error, when set, is returned instead; onJournal, when set, runs first.
type stubPersister struct {
	journal, checkpoint error
	onJournal           func()
}

func (p stubPersister) Journal(context.Context, string, int64, stream.Batch) error {
	if p.onJournal != nil {
		p.onJournal()
	}
	return p.journal
}

func (p stubPersister) Checkpoint(snap *core.SessionSnapshot) error {
	if snap.Table != nil {
		snap.Table.Release()
	}
	return p.checkpoint
}

func (stubPersister) CompactionDue(string) bool { return false }

// TestErrorsAreJSON: every error the API answers — a missing session, a
// malformed parameter or body, a pipeline or durability failure — is the
// structured {"error": …} body writeError writes, one request per site.
func TestErrorsAreJSON(t *testing.T) {
	const delta = `{"deltas":[{"op":"update","row":1,"column":"state","value":"FL"}]}`
	refused := errors.New("refused")
	// stale makes the session's repairs describe an older table, so the
	// next read that reports them must re-derive them.
	stale := func(t *testing.T, h http.Handler, _ *core.Session, _ context.CancelFunc) {
		if rec, _ := postJSON(t, h, "/api/v1/sessions/s1/deltas", delta); rec.Code != http.StatusOK {
			t.Fatalf("delta: %d %s", rec.Code, rec.Body.String())
		}
	}
	persister := func(p stubPersister) func(*testing.T, http.Handler, *core.Session, context.CancelFunc) {
		return func(_ *testing.T, _ http.Handler, se *core.Session, _ context.CancelFunc) { se.SetPersist(p) }
	}
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		cancel                   bool // the request's context is cancelled before it is served
		prep                     func(*testing.T, http.Handler, *core.Session, context.CancelFunc)
	}{
		{"no such session", "GET", "/api/v1/sessions/s9/pfds", "", 404, false, nil},
		{"delete no such session", "DELETE", "/api/v1/sessions/s9", "", 404, false, nil},
		{"malformed coverage", "POST", "/api/v1/sessions?coverage=x", "a,b\n1,2\n", 400, false, nil},
		{"malformed limit beside since", "GET", s1 + "/violations?since=0&limit=x", "", 400, false, nil},
		{"malformed csv", "POST", "/api/v1/sessions", "a,b\n1,\"2\n", 400, false, nil},
		{"upload cancelled", "POST", "/api/v1/sessions", "a,b\n1,2\n", 500, true, nil},
		{"list re-derives repairs", "GET", "/api/v1/sessions", "", 500, true, stale},
		{"summary re-derives repairs", "GET", s1, "", 500, true, stale},
		{"index page re-derives repairs", "GET", "/?session=s1", "", 500, true, stale},
		{"repairs re-derived", "GET", s1 + "/repairs", "", 500, true, stale},
		{"apply repairs derives", "POST", s1 + "/repairs/apply", "", 500, true, nil},
		{"apply repairs journal fails", "POST", s1 + "/repairs/apply", "", 500, false, persister(stubPersister{journal: refused})},
		{"apply repairs re-derives after", "POST", s1 + "/repairs/apply", "", 500, false,
			func(_ *testing.T, _ http.Handler, se *core.Session, cancel context.CancelFunc) {
				se.SetPersist(stubPersister{onJournal: cancel})
			}},
		{"confirm matches nothing", "POST", s1 + "/confirm", `{"ids":["nope"]}`, 400, false, nil},
		{"confirm detection cancelled", "POST", s1 + "/confirm", `{}`, 500, true, nil},
		{"confirm checkpoint fails", "POST", s1 + "/confirm", `{}`, 500, false, persister(stubPersister{checkpoint: refused})},
		{"malformed violation index", "GET", s1 + "/violations/x", "", 400, false, nil},
		{"violation index out of range", "GET", s1 + "/violations/99999", "", 404, false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
			h := srv.Handler()
			if rec, _ := postCSV(t, h, "/api/v1/sessions", csvBody(t, datagen.PhoneState(400, 0.01, 31))); rec.Code != http.StatusOK {
				t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.prep != nil {
				c.prep(t, h, srv.handle("s1").sess, cancel)
			}
			if c.cancel {
				cancel()
			}
			req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var body struct {
				Error *string `json:"error"`
			}
			if rec.Code != c.status || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == nil || *body.Error == "" {
				t.Fatalf("%s %s: %d %q %q, want %d and a JSON error", c.method, c.path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), c.status)
			}
		})
	}
}
