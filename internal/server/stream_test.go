package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
)

// postJSON posts a JSON body and decodes the JSON response (when any).
func postJSON(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

// newStreamServer uploads a phone_state dataset through the full
// pipeline and returns the handler plus the session id.
func newStreamServer(t *testing.T) (http.Handler, string) {
	t.Helper()
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	d := datagen.PhoneState(400, 0.01, 31)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	return h, out["session"].(string)
}

func TestAPIStagesPartialRunAnd409(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	d := datagen.PhoneState(300, 0.01, 32)

	// Unknown stage names are a 400.
	rec, _ := postCSV(t, h, "/api/v1/sessions?stages=profile,fly", csvBody(t, d))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad stage: %d", rec.Code)
	}

	// A discovery-only session exists but has never detected.
	rec, out := postCSV(t, h, "/api/v1/sessions?stages=profile,discovery", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("partial upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	for _, path := range []string{
		"/api/v1/sessions/" + id + "/detection",
		"/api/v1/sessions/" + id + "/violations?since=0",
	} {
		rec := get(t, h, path)
		if rec.Code != http.StatusConflict {
			t.Errorf("%s: status = %d, want 409", path, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: want a structured error body, got %q", path, rec.Body.String())
		}
	}
	// Deltas are also refused before detection.
	rec, body := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"delete","drop":[0]}]}`)
	if rec.Code != http.StatusConflict || body["error"] == nil {
		t.Errorf("deltas before detection: %d %s", rec.Code, rec.Body.String())
	}
	// The plain violations listing keeps its lenient legacy shape.
	if rec := get(t, h, "/api/v1/sessions/"+id+"/violations"); rec.Code != http.StatusOK {
		t.Errorf("plain violations: %d", rec.Code)
	}
}

func TestAPIDeltasRoundTrip(t *testing.T) {
	type change struct {
		Kind      string        `json:"kind"` // "added" or "removed"
		Violation pfd.Violation `json:"violation"`
	}
	h, id := newStreamServer(t)
	base := "/api/v1/sessions/" + id

	var before struct {
		Count int `json:"count"`
	}
	rec := get(t, h, base+"/violations")
	if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// A dirty append adds violations; the response carries the diff.
	rec, out := postJSON(t, h, base+"/deltas",
		`{"deltas":[{"op":"append","rows":[["8505550000","ZZ"]]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}
	if out["seq"].(float64) != 1 {
		t.Errorf("seq = %v", out["seq"])
	}
	added := int(out["added"].(float64))
	if added == 0 {
		t.Fatalf("dirty append added no violations: %s", rec.Body.String())
	}

	// The snapshot listing reflects the maintained set.
	var after struct {
		Count int `json:"count"`
	}
	rec = get(t, h, base+"/violations")
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+added {
		t.Errorf("violations %d -> %d, diff says +%d", before.Count, after.Count, added)
	}

	// since=0 returns the cumulative diff; since=current is empty.
	rec, out = postJSON(t, h, base+"/deltas",
		`{"deltas":[{"op":"update","row":400,"column":"state","value":"FL"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("repair delta: %d %s", rec.Code, rec.Body.String())
	}
	if removed := int(out["removed"].(float64)); removed == 0 {
		t.Error("fixing the dirty cell should remove violations")
	}
	rec = get(t, h, base+"/violations?since=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("since=0: %d %s", rec.Code, rec.Body.String())
	}
	var diff struct {
		Seq     int      `json:"seq"`
		Added   int      `json:"added"`
		Removed int      `json:"removed"`
		Count   int      `json:"count"`
		Changes []change `json:"changes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Seq != 2 {
		t.Errorf("since diff = %+v", diff)
	}
	// The transient ZZ violations cancelled out across the two batches.
	for _, c := range diff.Changes {
		if c.Violation.Observed == "ZZ" {
			t.Errorf("transient violation leaked: %+v", c.Violation)
		}
	}
	rec = get(t, h, base+fmt.Sprintf("/violations?since=%d", diff.Seq))
	var empty struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &empty); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || empty.Count != 0 {
		t.Errorf("since=current: %d count=%d", rec.Code, empty.Count)
	}

	// Diff pagination: limit=1 pages through the since=0 changes.
	rec = get(t, h, base+"/violations?since=0&limit=1")
	var page struct {
		Count    int      `json:"count"`
		Returned int      `json:"returned"`
		Changes  []change `json:"changes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != diff.Count || (diff.Count > 0 && page.Returned != 1) {
		t.Errorf("paginated diff = %+v", page)
	}

	// Malformed batches are rejected atomically with a 400.
	for _, body := range []string{
		`{"deltas":[]}`,
		`{"deltas":[{"op":"warp"}]}`,
		`{"deltas":[{"op":"append","rows":[["just-one-cell"]]}]}`,
		`{"deltas":[{"op":"update","row":99999,"column":"state","value":"FL"}]}`,
		`{"deltas":[{"op":"delete"}]}`,
		`not json`,
	} {
		rec, _ := postJSON(t, h, base+"/deltas", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
	// Bad cursors are a 400 too.
	for _, q := range []string{"since=abc", "since=-1", "since=999999"} {
		rec := get(t, h, base+"/violations?"+q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rec.Code)
		}
	}
}

func TestAPIApplyRepairs(t *testing.T) {
	h, id := newStreamServer(t)
	base := "/api/v1/sessions/" + id

	rec, out := postJSON(t, h, base+"/repairs/apply", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("repairs/apply: %d %s", rec.Code, rec.Body.String())
	}
	if int(out["changed"].(float64)) == 0 {
		t.Error("dirty dataset should have applied repairs")
	}
	if int(out["removed"].(float64)) == 0 {
		t.Error("applying repairs should remove violations")
	}
	// The repair batch is applied under the request's trace, so the trace
	// the response names shows the engine's apply span.
	tid := rec.Header().Get(obs.TraceIDHeader)
	tr, ok := obs.Traces.Get(tid)
	if !ok {
		t.Fatalf("trace %q of the apply request is not retained", tid)
	}
	if !slices.ContainsFunc(tr.Spans, func(sp obs.SpanRecord) bool { return sp.Name == "stream.apply" }) {
		t.Errorf("trace %s of the apply request holds no stream.apply span: %+v", tid, tr.Spans)
	}
	// Applying again is idempotent: nothing left to change.
	rec, out = postJSON(t, h, base+"/repairs/apply", "")
	if rec.Code != http.StatusOK || int(out["changed"].(float64)) != 0 {
		t.Errorf("second apply: %d %+v", rec.Code, out)
	}
}

// TestAPIApplyRepairsWithoutRules: a session whose discovery mined no
// rule has nothing to stream against, so applying repairs is a 409, as
// posting deltas to a session that never detected is.
func TestAPIApplyRepairsWithoutRules(t *testing.T) {
	h := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=pairs", "a,b\n1,2\n")
	if rec.Code != http.StatusOK || out["pfds"].(float64) != 0 {
		t.Fatalf("upload: %d %s, want a session with no rule", rec.Code, rec.Body.String())
	}
	if rec, _ := postJSON(t, h, "/api/v1/sessions/s1/repairs/apply", ""); rec.Code != http.StatusConflict {
		t.Fatalf("repairs/apply without rules: %d %s, want 409", rec.Code, rec.Body.String())
	}
}

// TestAPIConcurrentDeltas hammers one session with concurrent delta
// batches and cursor polls; run under -race this exercises the
// handle/engine locking end to end.
func TestAPIConcurrentDeltas(t *testing.T) {
	h, id := newStreamServer(t)
	base := "/api/v1/sessions/" + id
	const writers = 4
	const perWriter = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`{"deltas":[{"op":"append","rows":[["850%03d%04d","FL"]]}]}`, w, i)
				rec, _ := postJSON(t, h, base+"/deltas", body)
				if rec.Code != http.StatusOK {
					t.Errorf("writer %d: %d %s", w, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if rec := get(t, h, base+"/violations?since=0"); rec.Code != http.StatusOK {
					t.Errorf("poll: %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	rec := get(t, h, base+"/violations?since=0")
	var out struct {
		Seq int `json:"seq"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != writers*perWriter {
		t.Errorf("seq = %d, want %d", out.Seq, writers*perWriter)
	}
}

// TestRepairsDescribeTheCurrentTable: after a delete renumbers the rows,
// GET repairs serves the suggestions for the table as it is now — not
// the upload's, which would name other tuples — and the session summary
// counts the same ones.
func TestRepairsDescribeTheCurrentTable(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	h := srv.Handler()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(400, 0.01, 31)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)
	before := get(t, h, "/api/v1/sessions/"+id+"/repairs").Body.String()
	if rec, _ := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"delete","drop":[0,1,2,3,4,5,6,7,8,9]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("deltas: %d %s", rec.Code, rec.Body.String())
	}

	sess := srv.handle(id).sess
	want, err := detect.New(sess.Table, detect.Options{}).RepairsAllContext(context.Background(), sess.Confirmed, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRec := httptest.NewRecorder()
	writeJSON(wantRec, map[string]any{"session": id, "repairs": want})
	got := get(t, h, "/api/v1/sessions/"+id+"/repairs").Body.String()
	if got != wantRec.Body.String() {
		t.Fatalf("repairs after the delete are not the current table's:\n got %s\nwant %s", got, wantRec.Body.String())
	}
	if got == before {
		t.Fatal("fixture: the delete left the suggestions unchanged")
	}
	if _, sum := getJSON(t, h, "/api/v1/sessions/"+id); sum["repairs"].(float64) != float64(len(want)) {
		t.Fatalf("summary counts %v repairs, the current table has %d", sum["repairs"], len(want))
	}
}
